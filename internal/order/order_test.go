package order

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func brandDomain() *Domain {
	d := NewDomain("brand")
	for _, v := range []string{"Apple", "Lenovo", "Samsung", "Toshiba"} {
		d.Intern(v)
	}
	return d
}

func TestDomainIntern(t *testing.T) {
	d := NewDomain("brand")
	a := d.Intern("Apple")
	b := d.Intern("Lenovo")
	if a == b {
		t.Fatal("distinct values must get distinct ids")
	}
	if got := d.Intern("Apple"); got != a {
		t.Fatalf("re-intern changed id: %d vs %d", got, a)
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2", d.Size())
	}
	if d.Value(a) != "Apple" {
		t.Fatalf("Value(%d) = %q", a, d.Value(a))
	}
	if _, ok := d.ID("Sony"); ok {
		t.Fatal("ID of unknown value should report !ok")
	}
	if got := d.Name(); got != "brand" {
		t.Fatalf("Name = %q", got)
	}
}

func TestDomainValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Value out of range should panic")
		}
	}()
	NewDomain("x").Value(0)
}

func TestAddClosure(t *testing.T) {
	d := brandDomain()
	r := NewRelation(d)
	// Apple ≻ Lenovo, Lenovo ≻ Samsung must imply Apple ≻ Samsung.
	if err := r.AddValues("Apple", "Lenovo"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddValues("Lenovo", "Samsung"); err != nil {
		t.Fatal(err)
	}
	if !r.HasValues("Apple", "Samsung") {
		t.Fatal("transitive closure missing Apple ≻ Samsung")
	}
	if r.Size() != 3 {
		t.Fatalf("Size = %d, want 3", r.Size())
	}
	// Prepending a new top must propagate to all descendants.
	if err := r.AddValues("Toshiba", "Apple"); err != nil {
		t.Fatal(err)
	}
	for _, worse := range []string{"Apple", "Lenovo", "Samsung"} {
		if !r.HasValues("Toshiba", worse) {
			t.Errorf("closure missing Toshiba ≻ %s", worse)
		}
	}
	if r.Size() != 6 {
		t.Fatalf("Size = %d, want 6", r.Size())
	}
	if err := r.IsStrictPartialOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsViolations(t *testing.T) {
	d := brandDomain()
	r := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}})

	// Reflexive.
	a, _ := d.ID("Apple")
	if err := r.Add(a, a); !errors.Is(err, ErrNotStrictPartialOrder) {
		t.Errorf("reflexive Add error = %v", err)
	}
	// Direct reverse.
	if err := r.AddValues("Lenovo", "Apple"); !errors.Is(err, ErrNotStrictPartialOrder) {
		t.Errorf("asymmetry Add error = %v", err)
	}
	// Cycle through closure: Samsung ≻ Apple would close a 3-cycle.
	if err := r.AddValues("Samsung", "Apple"); !errors.Is(err, ErrNotStrictPartialOrder) {
		t.Errorf("cycle Add error = %v", err)
	}
	// Relation unchanged by failed adds.
	if r.Size() != 3 {
		t.Fatalf("failed Add mutated relation: size %d", r.Size())
	}
	// CanAdd mirrors Add's acceptance.
	s, _ := d.ID("Samsung")
	if r.CanAdd(s, a) {
		t.Error("CanAdd(Samsung, Apple) should be false")
	}
	l, _ := d.ID("Lenovo")
	to, _ := d.ID("Toshiba")
	if !r.CanAdd(to, l) {
		t.Error("CanAdd(Toshiba, Lenovo) should be true")
	}
	if r.CanAdd(-1, 0) || r.CanAdd(0, -1) {
		t.Error("CanAdd with negative ids should be false")
	}
}

func TestAddIdempotent(t *testing.T) {
	d := brandDomain()
	r := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}})
	if err := r.AddValues("Apple", "Lenovo"); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Fatalf("duplicate add changed size to %d", r.Size())
	}
}

func TestFromTuplesError(t *testing.T) {
	d := brandDomain()
	_, err := FromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Apple"}})
	if !errors.Is(err, ErrNotStrictPartialOrder) {
		t.Fatalf("FromTuples error = %v", err)
	}
}

func TestIntersectUnion(t *testing.T) {
	d := brandDomain()
	// Table 3 cluster relations: U1, U2, U3 (see Examples 5.1–5.2).
	u1 := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}, {"Toshiba", "Samsung"}})
	u2 := MustFromTuples(d, [][2]string{{"Samsung", "Lenovo"}, {"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}})
	u3 := MustFromTuples(d, [][2]string{{"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}, {"Lenovo", "Samsung"}, {"Apple", "Samsung"}})

	if got := u1.Size(); got != 4 { // closure adds Apple ≻ Samsung
		t.Fatalf("|U1| = %d, want 4", got)
	}
	if got := u2.Size(); got != 5 {
		t.Fatalf("|U2| = %d, want 5", got)
	}
	if got := u3.Size(); got != 4 {
		t.Fatalf("|U3| = %d, want 4", got)
	}

	// Example 5.1: sim_i(U1,U2)=0, sim_i(U1,U3)=2, sim_i(U2,U3)=2.
	if got := u1.IntersectionSize(u2); got != 0 {
		t.Errorf("|U1∩U2| = %d, want 0", got)
	}
	if got := u1.IntersectionSize(u3); got != 2 {
		t.Errorf("|U1∩U3| = %d, want 2", got)
	}
	if got := u2.IntersectionSize(u3); got != 2 {
		t.Errorf("|U2∩U3| = %d, want 2", got)
	}
	// Example 5.2: |U1∪U3| = 6, |U2∪U3| = 7.
	if got := u1.UnionSize(u3); got != 6 {
		t.Errorf("|U1∪U3| = %d, want 6", got)
	}
	if got := u2.UnionSize(u3); got != 7 {
		t.Errorf("|U2∪U3| = %d, want 7", got)
	}

	// Materialized intersection agrees with IntersectionSize and holds
	// exactly the common tuples.
	i13 := u1.Intersect(u3)
	if i13.Size() != 2 || !i13.HasValues("Apple", "Samsung") || !i13.HasValues("Lenovo", "Samsung") {
		t.Errorf("U1∩U3 = %v", i13)
	}
	if err := i13.IsStrictPartialOrder(); err != nil {
		t.Errorf("intersection not an SPO: %v", err)
	}
}

func TestMaximalAndWeights(t *testing.T) {
	d := brandDomain()
	u1 := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}, {"Toshiba", "Samsung"}})
	u2 := MustFromTuples(d, [][2]string{{"Samsung", "Lenovo"}, {"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}})
	u3 := MustFromTuples(d, [][2]string{{"Lenovo", "Apple"}, {"Lenovo", "Toshiba"}, {"Lenovo", "Samsung"}, {"Apple", "Samsung"}})

	id := func(v string) int {
		i, ok := d.ID(v)
		if !ok {
			t.Fatalf("unknown value %s", v)
		}
		return i
	}

	// Example 5.4: S_U1 = {Apple, Toshiba}, S_U2 = {Samsung}, S_U3 = {Lenovo}.
	if m := u1.Maximal(); !m.Contains(id("Apple")) || !m.Contains(id("Toshiba")) || m.Count() != 2 {
		t.Errorf("S_U1 = %v", m)
	}
	if m := u2.Maximal(); !m.Contains(id("Samsung")) || m.Count() != 1 {
		t.Errorf("S_U2 = %v", m)
	}
	if m := u3.Maximal(); !m.Contains(id("Lenovo")) || m.Count() != 1 {
		t.Errorf("S_U3 = %v", m)
	}

	// Example 5.4 weights. U1: Apple 1, Lenovo 1/2, Samsung 1/2, Toshiba 1.
	wantU1 := map[string]float64{"Apple": 1, "Lenovo": 0.5, "Samsung": 0.5, "Toshiba": 1}
	for v, w := range wantU1 {
		if got := u1.Weight(id(v)); got != w {
			t.Errorf("U1 weight(%s) = %v, want %v", v, got, w)
		}
	}
	// U2: Apple 1/3, Lenovo 1/2, Samsung 1, Toshiba 1/3.
	wantU2 := map[string]float64{"Apple": 1.0 / 3, "Lenovo": 0.5, "Samsung": 1, "Toshiba": 1.0 / 3}
	for v, w := range wantU2 {
		if got := u2.Weight(id(v)); got != w {
			t.Errorf("U2 weight(%s) = %v, want %v", v, got, w)
		}
	}
	// U3: Apple 1/2, Lenovo 1, Samsung 1/3, Toshiba 1/2.
	wantU3 := map[string]float64{"Apple": 0.5, "Lenovo": 1, "Samsung": 1.0 / 3, "Toshiba": 0.5}
	for v, w := range wantU3 {
		if got := u3.Weight(id(v)); got != w {
			t.Errorf("U3 weight(%s) = %v, want %v", v, got, w)
		}
	}
}

func TestHasseReduction(t *testing.T) {
	d := brandDomain()
	// Chain Apple ≻ Lenovo ≻ Samsung: closure has 3 tuples, Hasse has 2.
	r := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}})
	h := r.HasseTuples()
	if len(h) != 2 {
		t.Fatalf("Hasse tuples = %v, want 2 edges", h)
	}
	a, _ := d.ID("Apple")
	s, _ := d.ID("Samsung")
	for _, e := range h {
		if e.Better == a && e.Worse == s {
			t.Fatal("transitive edge Apple→Samsung must be reduced away")
		}
	}
}

func TestIsolatedValuesAreMaximal(t *testing.T) {
	d := brandDomain()
	d.Intern("Sony") // never used in any tuple
	r := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}})
	sony, _ := d.ID("Sony")
	if !r.Maximal().Contains(sony) {
		t.Error("isolated value should be maximal (Def. 5.3)")
	}
	if got := r.Weight(sony); got != 1 {
		t.Errorf("isolated weight = %v, want 1", got)
	}
}

func TestWeightedSize(t *testing.T) {
	d := brandDomain()
	// U1: tuples (A,L) w(A)=1, (A,S) w(A)=1, (L,S) w(L)=1/2, (T,S) w(T)=1.
	u1 := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}, {"Toshiba", "Samsung"}})
	if got, want := u1.WeightedSize(), 3.5; got != want {
		t.Errorf("WeightedSize = %v, want %v", got, want)
	}
}

// TestWeightsCacheFollowsMutations holds the cached weight slice to the
// definition, 1/(DistFromMaximal+1), wherever a stale cache would show:
// after Add and Remove, on a Clone (which starts without the cache), after
// the domain grew past the relation's N(), and after N() itself grew
// without a tuple changing.
func TestWeightsCacheFollowsMutations(t *testing.T) {
	check := func(when string, rel *Relation) {
		t.Helper()
		ws := rel.Weights()
		if len(ws) != rel.N() {
			t.Fatalf("%s: %d weights for N() = %d", when, len(ws), rel.N())
		}
		size := 0.0
		for v, w := range ws {
			if want := 1.0 / float64(rel.DistFromMaximal(v)+1); w != want || rel.Weight(v) != want {
				t.Fatalf("%s: Weights()[%d] = %v, Weight = %v, want %v", when, v, w, rel.Weight(v), want)
			}
			rel.Succ(v).ForEach(func(int) bool { size += w; return true })
		}
		if got := rel.WeightedSize(); got != size {
			t.Fatalf("%s: WeightedSize = %v, tuple by tuple %v", when, got, size)
		}
		for _, v := range []int{-1, rel.N(), rel.N() + 70} {
			if got := rel.Weight(v); got != 1 {
				t.Fatalf("%s: Weight(%d) = %v outside [0, N()), want 1", when, v, got)
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 30; round++ {
		d := NewDomain("q")
		rel := randomRelation(r, d, 3+r.Intn(80), 60)
		check("built", rel)
		for i := 0; i < 10; i++ {
			if rel.Add(r.Intn(rel.N()), r.Intn(rel.N())) == nil {
				check("after Add", rel)
			}
		}
		for len(rel.Asserted()) > 0 && r.Intn(4) > 0 {
			e := rel.Asserted()[r.Intn(len(rel.Asserted()))]
			if err := rel.Remove(e.Better, e.Worse); err != nil {
				t.Fatal(err)
			}
			check("after Remove", rel)
		}
		c := rel.Clone()
		check("clone", c)
		if c.Add(0, 1) == nil || c.Add(1, 0) == nil {
			check("clone after its own Add", c)
			check("original after the clone's Add", rel)
		}
		late := d.Intern("late")
		check("after a value was interned past N()", rel)
		rel.Succ(late) // grows N() to cover the late value; no tuple changes
		check("after N() grew", rel)
		if err := rel.Add(late, 0); err != nil {
			t.Fatal(err)
		}
		check("after Add of the late value", rel)
	}
}

func TestCloneEqualString(t *testing.T) {
	d := brandDomain()
	r := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}})
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone should be Equal")
	}
	if err := c.AddValues("Lenovo", "Samsung"); err != nil {
		t.Fatal(err)
	}
	if r.Equal(c) {
		t.Fatal("mutated clone should differ")
	}
	if r.HasValues("Lenovo", "Samsung") {
		t.Fatal("mutating clone affected original")
	}
	if got := r.String(); got != "{Apple≻Lenovo}" {
		t.Errorf("String = %q", got)
	}
}

func TestTuplesByValueSorted(t *testing.T) {
	d := brandDomain()
	r := MustFromTuples(d, [][2]string{{"Toshiba", "Samsung"}, {"Apple", "Lenovo"}})
	want := [][2]string{{"Apple", "Lenovo"}, {"Toshiba", "Samsung"}}
	if got := r.TuplesByValue(); !reflect.DeepEqual(got, want) {
		t.Errorf("TuplesByValue = %v, want %v", got, want)
	}
}

func TestIntersectPanicsOnDomainMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intersect across domains should panic")
		}
	}()
	a := NewRelation(brandDomain())
	b := NewRelation(brandDomain())
	a.Intersect(b)
}

// --- property-based tests ---

// randomRelation inserts random edges, skipping rejected ones, and returns
// the relation.
func randomRelation(r *rand.Rand, d *Domain, n, edges int) *Relation {
	for d.Size() < n {
		d.Intern(string(rune('a' + d.Size())))
	}
	rel := NewRelation(d)
	for i := 0; i < edges; i++ {
		x, y := r.Intn(n), r.Intn(n)
		rel.Add(x, y) // error (rejected tuple) intentionally ignored
	}
	return rel
}

// Axioms hold under arbitrary insertion sequences.
func TestQuickStrictPartialOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, NewDomain("q"), 12, 40)
		return rel.IsStrictPartialOrder() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Closure is insertion-order independent: the same accepted tuple set gives
// the same closed relation regardless of the order in which a superset of
// tuples already closed is re-added.
func TestQuickClosureIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, NewDomain("q"), 10, 30)
		// Re-adding every closure tuple must not change anything.
		re := NewRelation(rel.Dom())
		for _, tu := range rel.Tuples() {
			if err := re.Add(tu.Better, tu.Worse); err != nil {
				return false
			}
		}
		return re.Equal(rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Intersection of two random SPOs is an SPO (Theorem 4.2) and is subsumed
// by both operands.
func TestQuickIntersectionIsSPO(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDomain("q")
		a := randomRelation(r, d, 10, 25)
		b := randomRelation(r, d, 10, 25)
		i := a.Intersect(b)
		if i.IsStrictPartialOrder() != nil {
			return false
		}
		ok := true
		i.ForEachTuple(func(x, y int) {
			if !a.Has(x, y) || !b.Has(x, y) {
				ok = false
			}
		})
		if i.Size() != a.IntersectionSize(b) {
			return false
		}
		// inclusion-exclusion
		return ok && a.UnionSize(b) == a.Size()+b.Size()-i.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Hasse closure round-trip: re-closing the transitive reduction
// reconstructs the original relation.
func TestQuickHasseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, NewDomain("q"), 10, 30)
		re := NewRelation(rel.Dom())
		for _, e := range rel.HasseTuples() {
			if err := re.Add(e.Better, e.Worse); err != nil {
				return false
			}
		}
		return re.Equal(rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeightAndComparability(t *testing.T) {
	d := brandDomain()
	// Chain of 3: height 3.
	chain := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}})
	if got := chain.Height(); got != 3 {
		t.Errorf("chain Height = %d, want 3", got)
	}
	// Empty relation: height 1 (singleton chains only).
	empty := NewRelation(d)
	if got := empty.Height(); got != 1 {
		t.Errorf("empty Height = %d, want 1", got)
	}
	if got := NewRelation(NewDomain("void")).Height(); got != 0 {
		t.Errorf("empty-domain Height = %d, want 0", got)
	}
	// Antichain + chain: U1 = {A≻L, A≻S, L≻S, T≻S} has height 3 (A≻L≻S).
	u1 := MustFromTuples(d, [][2]string{{"Apple", "Lenovo"}, {"Lenovo", "Samsung"}, {"Toshiba", "Samsung"}})
	if got := u1.Height(); got != 3 {
		t.Errorf("U1 Height = %d, want 3", got)
	}
	// Comparability: 4 tuples over C(4,2)=6 pairs.
	if got := u1.Comparability(); got != 4.0/6 {
		t.Errorf("Comparability = %v, want 2/3", got)
	}
	if got := empty.Comparability(); got != 0 {
		t.Errorf("empty Comparability = %v", got)
	}
}

// Height is consistent with the definition on random posets: it equals
// the longest chain found by brute force over small domains.
func TestQuickHeightMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r, NewDomain("q"), 7, 12)
		// Brute force: longest path in the closed relation, memoized
		// over its successor sets.
		depth := map[int]int{}
		var chain func(v int) int
		chain = func(v int) int {
			if d, ok := depth[v]; ok {
				return d
			}
			d := 1
			rel.Succ(v).ForEach(func(w int) bool {
				d = max(d, chain(w)+1)
				return true
			})
			depth[v] = d
			return d
		}
		best := 1
		for v := 0; v < rel.N(); v++ {
			best = max(best, chain(v))
		}
		return rel.Height() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRelationAssertedTracking(t *testing.T) {
	dom := NewDomain("brand")
	r := NewRelation(dom)
	a, b, c := dom.Intern("a"), dom.Intern("b"), dom.Intern("c")
	if err := r.Add(a, b); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(b, c); err != nil {
		t.Fatal(err)
	}
	// (a,c) is implied, not asserted.
	if !r.Has(a, c) {
		t.Fatal("closure missing implied (a,c)")
	}
	if r.HasAsserted(a, c) {
		t.Error("implied tuple reported as asserted")
	}
	// Asserting an implied tuple records it without changing the closure.
	if err := r.Add(a, c); err != nil {
		t.Fatal(err)
	}
	if !r.HasAsserted(a, c) {
		t.Error("explicit assertion of implied tuple not recorded")
	}
	if got := len(r.Asserted()); got != 3 {
		t.Errorf("asserted count = %d, want 3", got)
	}
	// Re-asserting is idempotent.
	if err := r.Add(a, b); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Asserted()); got != 3 {
		t.Errorf("asserted count after re-add = %d, want 3", got)
	}
}

func TestRelationRemove(t *testing.T) {
	dom := NewDomain("brand")
	r := NewRelation(dom)
	a, b, c := dom.Intern("a"), dom.Intern("b"), dom.Intern("c")
	for _, e := range [][2]int{{a, b}, {b, c}} {
		if err := r.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Implied pairs cannot be removed on their own.
	if err := r.Remove(a, c); !errors.Is(err, ErrUnknownTuple) {
		t.Fatalf("removing implied tuple: %v, want ErrUnknownTuple", err)
	}
	// Removing (a,b) drops it and the implication (a,c); (b,c) survives.
	if err := r.Remove(a, b); err != nil {
		t.Fatal(err)
	}
	if r.Has(a, b) || r.Has(a, c) {
		t.Errorf("closure retains removed/implied pairs: %v", r)
	}
	if !r.Has(b, c) {
		t.Error("unrelated assertion lost")
	}
	if r.Size() != 1 {
		t.Errorf("size = %d, want 1", r.Size())
	}
	// A pair still derivable from another assertion survives removal of
	// one of its sources.
	r2 := NewRelation(dom)
	for _, e := range [][2]int{{a, b}, {b, c}, {a, c}} {
		if err := r2.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r2.Remove(a, b); err != nil {
		t.Fatal(err)
	}
	if !r2.Has(a, c) {
		t.Error("independently asserted (a,c) lost with (a,b)")
	}
	// The reverse of a removed tuple becomes addable again.
	if err := r.Add(b, a); err != nil {
		t.Errorf("reverse of removed tuple rejected: %v", err)
	}
	// Clone carries the asserted base.
	cl := r2.Clone()
	if err := cl.Remove(b, c); err != nil {
		t.Errorf("clone lost asserted base: %v", err)
	}
	if !r2.Has(b, c) {
		t.Error("removing from clone mutated the original")
	}
}
