package order

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// parentIntersect is the two-relation loop Intersect ran before relations
// were laid out in one slab: a fresh relation over the whole domain whose
// rows x < min(r.n, o.n) are r's rows ANDed with o's. IntersectWith must
// reproduce it exactly.
func parentIntersect(r, o *Relation) *Relation {
	c := &Relation{dom: r.dom}
	c.ensure(max(r.dom.Size(), r.n))
	for x := 0; x < min(r.n, o.n); x++ {
		c.succ[x].CopyFrom(r.succ[x])
		c.succ[x].And(o.succ[x])
		c.size += c.succ[x].Count()
	}
	return c
}

func internN(d *Domain, n int) {
	for d.Size() < n {
		d.Intern(fmt.Sprintf("v%d", d.Size()))
	}
}

func TestIntersectWithMatchesParentIntersect(t *testing.T) {
	// Each case builds r over the first rn values and o over the first on,
	// interning up to grow values after both are made.
	cases := []struct {
		name         string
		rn, on, grow int
	}{
		{"r shorter than o", 6, 70, 70},
		{"o shorter than r", 70, 6, 70},
		{"equal spans", 20, 20, 20},
		{"domain grown after both", 10, 12, 80},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.rn*131 + tc.on)))
			d := NewDomain("d")
			build := func(n int) *Relation {
				internN(d, n)
				rel := NewRelation(d)
				for i := 0; i < 3*n; i++ {
					rel.Add(rng.Intn(n), rng.Intn(n)) // rejected tuples are skipped
				}
				// Shared pairs, so the intersection is not empty.
				rel.Add(0, 1)
				rel.Add(1, 2)
				return rel
			}
			var r, o *Relation
			if tc.rn <= tc.on {
				r, o = build(tc.rn), build(tc.on)
			} else {
				o, r = build(tc.on), build(tc.rn)
			}
			internN(d, tc.grow)
			want := parentIntersect(r, o)
			rBefore, oBefore := r.Tuples(), o.Tuples()

			got := r.Clone()
			got.Maximal() // prime the views IntersectWith must drop
			got.Rel(0, 1)
			got.IntersectWith(o)

			if got.N() != want.N() || got.Size() != want.Size() {
				t.Fatalf("n, size = %d, %d; want %d, %d", got.N(), got.Size(), want.N(), want.Size())
			}
			for x := range want.succ {
				if !got.succ[x].Equal(want.succ[x]) {
					t.Fatalf("row %d = %v, want %v", x, got.succ[x], want.succ[x])
				}
			}
			if !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
				t.Fatalf("tuples = %v, want %v", got.Tuples(), want.Tuples())
			}
			if len(got.Asserted()) != 0 {
				t.Fatalf("asserted base survived the intersect: %v", got.Asserted())
			}
			if !reflect.DeepEqual(got, r.Intersect(o)) {
				t.Fatal("Intersect and Clone+IntersectWith disagree")
			}
			if !reflect.DeepEqual(r.Tuples(), rBefore) || !reflect.DeepEqual(o.Tuples(), oBefore) {
				t.Fatal("intersecting a clone changed an operand")
			}

			fresh := NewRelation(d)
			for _, tu := range want.Tuples() {
				if err := fresh.Add(tu.Better, tu.Worse); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got.HasseTuples(), fresh.HasseTuples()) {
				t.Fatalf("Hasse = %v, want %v", got.HasseTuples(), fresh.HasseTuples())
			}
			if !got.Maximal().Equal(fresh.Maximal()) {
				t.Fatalf("Maximal = %v, want %v", got.Maximal(), fresh.Maximal())
			}
			for x := 0; x < d.Size(); x++ {
				for y := 0; y < d.Size(); y++ {
					if g, w := got.Rel(x, y), fresh.Rel(x, y); g != w {
						t.Fatalf("Rel(%d, %d) = %d, want %d", x, y, g, w)
					}
				}
			}
		})
	}
}

// A relation's rows are one slab: making or cloning one costs the same
// few allocations whatever the domain size, the closure step of Add
// allocates nothing once its rows fit, and Remove's rebuild costs the
// same whatever the number of assertions it keeps.
func TestRelationAllocs(t *testing.T) {
	sizes := []int{12, 60, 500}
	var newAllocs, cloneAllocs []float64
	for _, n := range sizes {
		d := NewDomain("d")
		internN(d, n)
		r := randomRelation(rand.New(rand.NewSource(int64(n))), d, n, 2*n)
		newAllocs = append(newAllocs, testing.AllocsPerRun(10, func() { _ = NewRelation(d) }))
		cloneAllocs = append(cloneAllocs, testing.AllocsPerRun(10, func() { _ = r.Clone() }))
	}
	for i, n := range sizes {
		if newAllocs[i] > 5 || newAllocs[i] != newAllocs[0] {
			t.Errorf("NewRelation over %d values: %v allocs, want ≤ 5 and %v as at %d", n, newAllocs[i], newAllocs[0], sizes[0])
		}
		if cloneAllocs[i] > 5 || cloneAllocs[i] != cloneAllocs[0] {
			t.Errorf("Clone over %d values: %v allocs, want ≤ 5 and %v as at %d", n, cloneAllocs[i], cloneAllocs[0], sizes[0])
		}
	}

	d := NewDomain("d")
	internN(d, 60)
	r := NewRelation(d)
	r.asserted = make([]Tuple, 0, 64)
	chain := []Tuple{{3, 4}, {1, 2}, {2, 3}, {0, 1}, {5, 1}, {4, 59}, {0, 59}}
	if got := testing.AllocsPerRun(10, func() {
		for _, s := range r.succ {
			s.Clear()
		}
		r.size, r.asserted = 0, r.asserted[:0]
		for _, tu := range chain {
			if err := r.Add(tu.Better, tu.Worse); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("Add with rows and assertion room to spare: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() { r.Add(2, 3) }); got != 0 {
		t.Errorf("Add of an already asserted tuple: %v allocs, want 0", got)
	}

	var removeAllocs []float64
	for _, kept := range []int{1, 8, 40} {
		base := NewRelation(d)
		for i := 0; i <= kept; i++ {
			base.Add(i, i+1)
		}
		const runs = 10
		rels := make([]*Relation, runs+1) // AllocsPerRun adds one warm-up run
		for i := range rels {
			rels[i] = base.Clone()
		}
		i := 0
		removeAllocs = append(removeAllocs, testing.AllocsPerRun(runs, func() {
			rels[i].Remove(0, 1)
			i++
		}))
	}
	for _, a := range removeAllocs {
		if a != removeAllocs[0] || a > 5 {
			t.Errorf("Remove keeping 1, 8, 40 assertions: %v allocs, want one constant ≤ 5", removeAllocs)
			break
		}
	}
}

// fuzzDomainLimit bounds the domain FuzzRelationOps grows.
const fuzzDomainLimit = 72

// pairModel is FuzzRelationOps's reference for one relation: its pairs as
// a matrix, closed by Floyd–Warshall, and its asserted base in order.
type pairModel struct {
	pairs    [fuzzDomainLimit][fuzzDomainLimit]bool
	asserted []Tuple
}

func (m *pairModel) clone() *pairModel {
	c := *m
	c.asserted = append([]Tuple(nil), m.asserted...)
	return &c
}

// close makes pairs transitively closed over ids [0, n).
func (m *pairModel) close(n int) {
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if m.pairs[i][k] {
				for j := 0; j < n; j++ {
					m.pairs[i][j] = m.pairs[i][j] || m.pairs[k][j]
				}
			}
		}
	}
}

func (m *pairModel) check(t *testing.T, who string, r *Relation, n int) {
	t.Helper()
	var want []Tuple
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			has := m.pairs[x][y]
			if r.Has(x, y) != has {
				t.Fatalf("%s: Has(%d, %d) = %v, model %v", who, x, y, !has, has)
			}
			if has {
				want = append(want, Tuple{x, y})
			}
		}
	}
	if r.Size() != len(want) {
		t.Fatalf("%s: Size = %d, model %d", who, r.Size(), len(want))
	}
	if got := r.Tuples(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Tuples = %v, model %v", who, got, want)
	}
	if got := r.Asserted(); len(got) != len(m.asserted) || len(got) > 0 && !reflect.DeepEqual(got, m.asserted) {
		t.Fatalf("%s: Asserted = %v, model %v", who, got, m.asserted)
	}
}

// FuzzRelationOps runs sequences of Add, Remove, Clone, IntersectWith and
// domain growth over a pool of relations sharing one domain, and after
// every step checks every relation in the pool against its own pair-set
// model. Because the whole pool is checked, a clone that leaks writes into
// its source, or a slab row that grows past its cap into its neighbour,
// fails the step that did it. The domain starts at 60 values, so each slab
// row is one word, and grows up to fuzzDomainLimit: tuples on the new
// values grow rows out of the slab.
func FuzzRelationOps(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		ops := make([]byte, 4*40)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// Grow the domain past one word, grow row 62 out of the slab, write its
	// neighbour, clone, grow the clone's rows, intersect the two.
	f.Add([]byte{
		0, 0, 63, 62, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0,
		0, 0, 62, 64, 0, 0, 63, 61, 2, 0, 0, 0, 0, 1, 61, 64, 3, 0, 0, 1,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pool, maxSteps = 4, 96
		if len(ops) > 4*maxSteps {
			ops = ops[:4*maxSteps] // each step costs a Floyd–Warshall pass
		}
		d := NewDomain("fuzz")
		internN(d, 60)
		rels := []*Relation{NewRelation(d)}
		models := []*pairModel{{}}
		for step := 0; step+4 <= len(ops); step += 4 {
			op, i, a, b := ops[step]%5, int(ops[step+1])%len(rels), int(ops[step+2]), int(ops[step+3])
			n := d.Size()
			r, m := rels[i], models[i]
			tu := Tuple{a % n, b % n}
			switch op {
			case 0: // Add
				err := r.Add(tu.Better, tu.Worse)
				if refuse := tu.Better == tu.Worse || m.pairs[tu.Worse][tu.Better]; refuse != (err != nil) {
					t.Fatalf("step %d: Add(%v) = %v, model refuses: %v", step, tu, err, refuse)
				}
				if err == nil {
					if !containsTuple(m.asserted, tu) {
						m.asserted = append(m.asserted, tu)
					}
					m.pairs[tu.Better][tu.Worse] = true
					m.close(n)
				}
			case 1: // Remove: an asserted tuple when there is one and a is even
				if len(m.asserted) > 0 && a%2 == 0 {
					tu = m.asserted[b%len(m.asserted)]
				}
				err := r.Remove(tu.Better, tu.Worse)
				if known := containsTuple(m.asserted, tu); known != (err == nil) {
					t.Fatalf("step %d: Remove(%v) = %v, model asserted: %v", step, tu, err, known)
				}
				if err == nil {
					kept := make([]Tuple, 0, len(m.asserted))
					for _, at := range m.asserted {
						if at != tu {
							kept = append(kept, at)
						}
					}
					*m = pairModel{asserted: kept}
					for _, at := range kept {
						m.pairs[at.Better][at.Worse] = true
					}
					m.close(n)
				}
			case 2: // Clone into a free slot, or over another one
				c, cm := r.Clone(), m.clone()
				if len(rels) < pool {
					rels, models = append(rels, c), append(models, cm)
				} else {
					rels[b%pool], models[b%pool] = c, cm
				}
			case 3: // IntersectWith another relation of the pool (or itself)
				j := b % len(rels)
				r.IntersectWith(rels[j])
				for x := range m.pairs {
					for y := range m.pairs[x] {
						m.pairs[x][y] = m.pairs[x][y] && models[j].pairs[x][y]
					}
				}
				m.asserted = nil
			case 4: // Domain growth after the relations were made
				if n < fuzzDomainLimit {
					d.Intern(fmt.Sprintf("v%d", n))
				}
			}
			for k, rk := range rels {
				models[k].check(t, fmt.Sprintf("step %d (op %d), relation %d", step, op, k), rk, d.Size())
			}
		}
	})
}

func containsTuple(ts []Tuple, t Tuple) bool {
	for _, u := range ts {
		if u == t {
			return true
		}
	}
	return false
}
