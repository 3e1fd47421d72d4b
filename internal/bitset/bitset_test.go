package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(10)
	if s.Contains(3) {
		t.Fatal("empty set should not contain 3")
	}
	s.Add(3)
	s.Add(64)
	s.Add(129)
	for _, v := range []int{3, 64, 129} {
		if !s.Contains(v) {
			t.Errorf("set should contain %d", v)
		}
	}
	for _, v := range []int{0, 2, 4, 63, 65, 128, 130} {
		if s.Contains(v) {
			t.Errorf("set should not contain %d", v)
		}
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("64 should be removed")
	}
	s.Remove(9999) // absent, beyond capacity: no-op
	s.Remove(-1)   // no-op
	if got := s.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	New(4).Add(-1)
}

func TestContainsNegative(t *testing.T) {
	if New(4).Contains(-5) {
		t.Fatal("Contains(-5) must be false")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero value should be empty")
	}
	s.Add(100)
	if !s.Contains(100) {
		t.Fatal("zero value Set should accept Add")
	}
}

func TestCountEmptyClear(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 100})
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	if s.Empty() {
		t.Fatal("set should not be empty")
	}
	s.Clear()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("cleared set should be empty")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromSlice([]int{1, 2})
	c := s.Clone()
	c.Add(3)
	if s.Contains(3) {
		t.Fatal("mutating clone changed original")
	}
	s.Add(4)
	if c.Contains(4) {
		t.Fatal("mutating original changed clone")
	}
}

// Rows share one backing array but behave as independent sets: writing,
// clearing or growing one row never shows in its neighbours, and a
// CloneRows copy is independent of its source.
func TestRowsIsolated(t *testing.T) {
	rows := Rows(3, 100) // two words a row
	for i, s := range rows {
		s.Add(i)
		s.Add(99)
	}
	// Longer than the row: CopyFrom must not reslice into row 1's words.
	rows[0].CopyFrom(FromSlice([]int{5, 150}))
	if want := FromSlice([]int{5, 150}); !rows[0].Equal(want) {
		t.Fatalf("row 0 after CopyFrom = %v, want %v", rows[0], want)
	}
	rows[1].Add(500) // past the row's cap: copies out of the slab
	rows[1].Add(64)
	rows[0].Clear()
	if !rows[0].Empty() {
		t.Fatalf("row 0 after Clear = %v", rows[0])
	}
	if want := FromSlice([]int{1, 64, 99, 500}); !rows[1].Equal(want) {
		t.Fatalf("row 1 = %v, want %v", rows[1], want)
	}
	if want := FromSlice([]int{2, 99}); !rows[2].Equal(want) {
		t.Fatalf("row 2 = %v, want %v (neighbour overwritten)", rows[2], want)
	}

	// Rows of different lengths keep their lengths, and each copy is
	// capped: growing copy 0 must not reach copy 1.
	src := []*Set{FromSlice([]int{3}), FromSlice([]int{200}), New(0)}
	cp := CloneRows(src)
	for i := range src {
		if !cp[i].Equal(src[i]) || len(cp[i].words) != len(src[i].words) {
			t.Fatalf("copy %d = %v (%d words), want %v (%d words)",
				i, cp[i], len(cp[i].words), src[i], len(src[i].words))
		}
	}
	cp[0].CopyFrom(FromSlice([]int{3, 70, 150}))
	cp[2].Add(1)
	if src[0].Contains(70) || src[2].Contains(1) || !cp[0].Contains(150) {
		t.Fatal("mutating a copy changed its source")
	}
	if want := FromSlice([]int{200}); !cp[1].Equal(want) {
		t.Fatalf("copy 1 = %v, want %v (neighbour overwritten)", cp[1], want)
	}
}

// A slab costs three allocations whatever the number of rows.
func TestRowsAllocs(t *testing.T) {
	for _, n := range []int{1, 12, 500} {
		rows := Rows(n, n)
		if got := testing.AllocsPerRun(10, func() { rows = Rows(n, n) }); got != 3 {
			t.Errorf("Rows(%d, %d): %v allocs, want 3", n, n, got)
		}
		if got := testing.AllocsPerRun(10, func() { _ = CloneRows(rows) }); got != 3 {
			t.Errorf("CloneRows of %d rows: %v allocs, want 3", n, got)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	s := FromSlice([]int{1, 2, 3})
	tgt := FromSlice([]int{500})
	tgt.CopyFrom(s)
	if !tgt.Equal(s) {
		t.Fatalf("CopyFrom: got %v, want %v", tgt, s)
	}
	// target smaller than source
	small := New(0)
	small.CopyFrom(s)
	if !small.Equal(s) {
		t.Fatalf("CopyFrom into small: got %v", small)
	}
}

func TestOrAndAndNot(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 200})
	b := FromSlice([]int{2, 3, 4})

	u := a.Clone()
	if changed := u.Or(b); !changed {
		t.Error("Or should report change")
	}
	wantU := []int{1, 2, 3, 4, 200}
	if !reflect.DeepEqual(u.Slice(), wantU) {
		t.Errorf("union = %v, want %v", u.Slice(), wantU)
	}
	if changed := u.Or(b); changed {
		t.Error("second Or should report no change")
	}

	i := a.Clone()
	i.And(b)
	if !reflect.DeepEqual(i.Slice(), []int{2, 3}) {
		t.Errorf("intersection = %v, want [2 3]", i.Slice())
	}

	d := a.Clone()
	d.AndNot(b)
	if !reflect.DeepEqual(d.Slice(), []int{1, 200}) {
		t.Errorf("difference = %v, want [1 200]", d.Slice())
	}
}

func TestOrGrows(t *testing.T) {
	a := New(4)
	b := FromSlice([]int{300})
	a.Or(b)
	if !a.Contains(300) {
		t.Fatal("Or should grow receiver")
	}
}

func TestAndShrinksLogically(t *testing.T) {
	a := FromSlice([]int{1, 300})
	b := FromSlice([]int{1})
	a.And(b)
	if a.Contains(300) {
		t.Fatal("And with shorter set must clear high words")
	}
}

func TestCountsNoAlloc(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 128})
	b := FromSlice([]int{2, 3, 4})
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if got := a.UnionCount(b); got != 5 {
		t.Errorf("UnionCount = %d, want 5", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊄ a expected")
	}
	if !a.Equal(a.Clone()) {
		t.Error("a should equal its clone")
	}
	// Equal across different backing lengths.
	c := New(1000)
	c.Add(1)
	c.Add(2)
	if !a.Equal(c) || !c.Equal(a) {
		t.Error("Equal must ignore trailing zero words")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4})
	var seen []int
	s.ForEach(func(v int) bool {
		seen = append(seen, v)
		return v < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("early stop saw %v, want [1 2]", seen)
	}
}

func TestMin(t *testing.T) {
	if got := New(10).Min(); got != -1 {
		t.Errorf("Min of empty = %d, want -1", got)
	}
	if got := FromSlice([]int{130, 5, 64}).Min(); got != 5 {
		t.Errorf("Min = %d, want 5", got)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{1, 5}).String(); got != "{1, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// --- property-based tests ---

// randomSet builds a set plus its reference map representation.
func randomSet(r *rand.Rand, max int) (*Set, map[int]bool) {
	s := New(max)
	m := make(map[int]bool)
	n := r.Intn(max)
	for i := 0; i < n; i++ {
		v := r.Intn(max)
		s.Add(v)
		m[v] = true
	}
	return s, m
}

func TestQuickSetMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, m := randomSet(r, 300)
		if s.Count() != len(m) {
			return false
		}
		want := make([]int, 0, len(m))
		for v := range m {
			want = append(want, v)
		}
		sort.Ints(want)
		return reflect.DeepEqual(s.Slice(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, am := randomSet(r, 200)
		b, bm := randomSet(r, 200)

		inter, union, diff := 0, 0, 0
		seen := map[int]bool{}
		for v := range am {
			seen[v] = true
			if bm[v] {
				inter++
			} else {
				diff++
			}
		}
		for v := range bm {
			seen[v] = true
		}
		union = len(seen)

		if a.IntersectionCount(b) != inter {
			return false
		}
		if a.UnionCount(b) != union {
			return false
		}
		// |A| = |A∩B| + |A−B|
		if a.Count() != inter+diff {
			return false
		}
		// De Morgan-ish sanity: |A∪B| = |A| + |B| − |A∩B|
		return union == a.Count()+b.Count()-inter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOrAndConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := randomSet(r, 200)
		b, _ := randomSet(r, 200)
		u := a.Clone()
		u.Or(b)
		i := a.Clone()
		i.And(b)
		// A∩B ⊆ A ⊆ A∪B
		if !i.SubsetOf(a) || !a.SubsetOf(u) {
			return false
		}
		// (A∪B) − B = A − B
		d1 := u.Clone()
		d1.AndNot(b)
		d2 := a.Clone()
		d2.AndNot(b)
		return d1.Equal(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
