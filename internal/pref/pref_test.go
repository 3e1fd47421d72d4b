package pref_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

func laptops(t *testing.T) *fixtures.Laptops {
	t.Helper()
	return fixtures.NewLaptops()
}

// obj returns oN (1-based, as in the paper).
func obj(l *fixtures.Laptops, n int) object.Object { return l.Objects[n-1] }

func TestExample11Dominance(t *testing.T) {
	l := laptops(t)
	// Example 1.1: c1 prefers o2 to o1.
	if got := l.C1.Compare(obj(l, 2), obj(l, 1)); got != pref.Left {
		t.Errorf("c1: o2 vs o1 = %v, want Left", got)
	}
	// c1 does not prefer o1 over o3 or o3 over o1 (brand conflicts).
	if got := l.C1.Compare(obj(l, 1), obj(l, 3)); got != pref.Incomparable {
		t.Errorf("c1: o1 vs o3 = %v, want Incomparable", got)
	}
	// o15 is dominated by o2 w.r.t. c1 ...
	if !l.C1.Dominates(obj(l, 2), obj(l, 15)) {
		t.Error("c1: o2 should dominate o15")
	}
	// ... but o15 is Pareto-optimal for c2: o2 must not dominate it.
	if l.C2.Dominates(obj(l, 2), obj(l, 15)) {
		t.Error("c2: o2 must not dominate o15")
	}
	// o16 is dominated by both o2 and o15 w.r.t. U (Sec. 1).
	if !l.U.Dominates(obj(l, 2), obj(l, 16)) {
		t.Error("U: o2 should dominate o16")
	}
	if !l.U.Dominates(obj(l, 15), obj(l, 16)) {
		t.Error("U: o15 should dominate o16")
	}
}

func TestExample35PreferenceTuples(t *testing.T) {
	l := laptops(t)
	// Example 3.5 sample tuples.
	c1 := l.C1
	if !c1.Relation(0).HasValues(fixtures.D10to12, fixtures.D16to18) {
		t.Error("c1 display missing (10-12.9, 16-18.9)")
	}
	if !c1.Relation(1).HasValues("Apple", "Samsung") {
		t.Error("c1 brand missing (Apple, Samsung)")
	}
	if !c1.Relation(2).HasValues("dual", "triple") {
		t.Error("c1 CPU missing (dual, triple)")
	}
	c2 := l.C2
	if !c2.Relation(0).HasValues(fixtures.D16to18, fixtures.D19up) {
		t.Error("c2 display missing (16-18.9, 19-up)")
	}
	if !c2.Relation(1).HasValues("Toshiba", "Sony") {
		t.Error("c2 brand missing (Toshiba, Sony)")
	}
	if !c2.Relation(2).HasValues("triple", "dual") {
		t.Error("c2 CPU missing (triple, dual)")
	}
	// Sec. 1 / Example 6.3: c2 relates neither (Apple, Samsung) nor its
	// reverse.
	if c2.Relation(1).HasValues("Apple", "Samsung") || c2.Relation(1).HasValues("Samsung", "Apple") {
		t.Error("c2 must be indifferent between Apple and Samsung")
	}
}

func TestExample44CommonRelations(t *testing.T) {
	l := laptops(t)
	common := pref.Common([]*pref.Profile{l.C1, l.C2})

	// Example 4.4: ≻CPU_{c1,c2} = {(dual,single), (triple,single), (quad,single)}.
	cpu := common.Relation(2)
	want := [][2]string{{"dual", "single"}, {"quad", "single"}, {"triple", "single"}}
	got := cpu.TuplesByValue()
	if len(got) != len(want) {
		t.Fatalf("≻CPU_U = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("≻CPU_U = %v, want %v", got, want)
		}
	}

	// Table 2's U row must equal the computed intersection on every attribute.
	if !common.Equal(l.U) {
		for d := 0; d < 3; d++ {
			t.Logf("attr %d: computed %v, fixture %v", d, common.Relation(d), l.U.Relation(d))
		}
		t.Fatal("fixture U differs from C1 ∩ C2")
	}
}

func TestUHatSupersetOfU(t *testing.T) {
	// Lemma 6.4(1): the approximate relation subsumes the common one.
	l := laptops(t)
	if !l.UHat.Subsumes(l.U) {
		t.Fatal("Û must subsume U")
	}
	if l.U.Subsumes(l.UHat) {
		t.Fatal("Û should be a strict superset of U in this fixture")
	}
}

func TestCompareIdentical(t *testing.T) {
	l := laptops(t)
	a := obj(l, 7)
	dup := object.Object{ID: 99, Attrs: append([]int32(nil), a.Attrs...)}
	if got := l.C1.Compare(a, dup); got != pref.Identical {
		t.Errorf("Compare(identical) = %v", got)
	}
	if l.C1.Dominates(a, dup) || l.C1.Dominates(dup, a) {
		t.Error("identical objects must not dominate each other")
	}
}

func TestCompareSymmetry(t *testing.T) {
	l := laptops(t)
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			ab := l.C2.Compare(obj(l, i), obj(l, j))
			ba := l.C2.Compare(obj(l, j), obj(l, i))
			ok := (ab == pref.Left && ba == pref.Right) ||
				(ab == pref.Right && ba == pref.Left) ||
				(ab == ba && (ab == pref.Incomparable || ab == pref.Identical))
			if !ok {
				t.Errorf("asymmetric Compare: o%d vs o%d = %v / %v", i, j, ab, ba)
			}
		}
	}
}

func TestProjectReducesDims(t *testing.T) {
	l := laptops(t)
	p2 := l.C1.Project(2)
	if p2.Dims() != 2 {
		t.Fatalf("Dims = %d", p2.Dims())
	}
	// o2 and o8 differ only on display within the first 2 attrs
	// (13-15.9 Apple vs 10-12.9 Apple): o2 dominates o8 in 2D.
	if !p2.Dominates(obj(l, 2).Project(2), obj(l, 8).Project(2)) {
		t.Error("projected dominance failed")
	}
}

func TestCmpString(t *testing.T) {
	for c, want := range map[pref.Cmp]string{
		pref.Left: "Left", pref.Right: "Right",
		pref.Identical: "Identical", pref.Incomparable: "Incomparable",
	} {
		if c.String() != want {
			t.Errorf("String(%d) = %q", c, c.String())
		}
	}
}

func TestCommonPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Common(nil) should panic")
		}
	}()
	pref.Common(nil)
}

// movieMembers returns k user profiles over the movie workload's four
// attribute domains (60, 40, 12 and 50 values).
func movieMembers(k int) []*pref.Profile {
	return datagen.Generate(datagen.Movie().Scaled(200, k)).Users
}

// Common clones the first member once and narrows the clone in place, so
// it allocates exactly what one Profile.Clone does, whatever the number
// of members.
func TestCommonAllocs(t *testing.T) {
	members := movieMembers(8)
	clone := testing.AllocsPerRun(10, func() { _ = members[0].Clone() })
	for _, k := range []int{1, 2, 8} {
		if got := testing.AllocsPerRun(10, func() { _ = pref.Common(members[:k]) }); got != clone {
			t.Errorf("Common of %d members: %v allocs, want %v as one Clone", k, got, clone)
		}
	}
	// The in-place narrowing leaves every member as it was.
	before := make([]*pref.Profile, len(members))
	for i, m := range members {
		before[i] = m.Clone()
	}
	c := pref.Common(members)
	for i, m := range members {
		if !m.Equal(before[i]) {
			t.Fatalf("Common changed member %d", i)
		}
		if !m.Subsumes(c) {
			t.Fatalf("member %d does not subsume the common profile", i)
		}
	}
}

func TestSetRelationDomainCheck(t *testing.T) {
	l := laptops(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRelation with wrong domain should panic")
		}
	}()
	l.C1.SetRelation(0, order.NewRelation(l.Domains[1]))
}

// randomProfiles builds k random user profiles over shared small domains.
func randomProfiles(r *rand.Rand, k int) []*pref.Profile {
	doms := []*order.Domain{order.NewDomain("a"), order.NewDomain("b")}
	for _, d := range doms {
		for i := 0; i < 6; i++ {
			d.Intern(string(rune('a' + i)))
		}
	}
	out := make([]*pref.Profile, k)
	for u := 0; u < k; u++ {
		p := pref.NewProfile(doms)
		for d := 0; d < 2; d++ {
			for e := 0; e < 8; e++ {
				p.Relation(d).Add(r.Intn(6), r.Intn(6)) // rejections fine
			}
		}
		out[u] = p
	}
	return out
}

func randomObject(r *rand.Rand) object.Object {
	return object.Object{Attrs: []int32{int32(r.Intn(6)), int32(r.Intn(6))}}
}

// Def. 4.1: the common profile is subsumed by every member, and common
// dominance implies per-user dominance (the key step in Theorem 4.5).
func TestQuickCommonSubsumedAndSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users := randomProfiles(r, 3)
		common := pref.Common(users)
		for _, u := range users {
			if !u.Subsumes(common) {
				return false
			}
		}
		for i := 0; i < 50; i++ {
			a, b := randomObject(r), randomObject(r)
			if common.Dominates(a, b) {
				for _, u := range users {
					if !u.Dominates(a, b) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Object dominance is a strict partial order: irreflexive, asymmetric,
// transitive (Def. 3.2 induces one).
func TestQuickDominanceIsStrictPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := randomProfiles(r, 1)[0]
		objs := make([]object.Object, 12)
		for i := range objs {
			objs[i] = randomObject(r)
		}
		for _, a := range objs {
			if u.Dominates(a, a) {
				return false
			}
			for _, b := range objs {
				if u.Dominates(a, b) && u.Dominates(b, a) {
					return false
				}
				for _, c := range objs {
					if u.Dominates(a, b) && u.Dominates(b, c) && !u.Dominates(a, c) && !slices.Equal(a.Attrs, c.Attrs) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
