package order

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/bitset"
)

// ErrNotStrictPartialOrder is returned when an edge insertion would violate
// irreflexivity or asymmetry (and hence, with closure, transitivity).
var ErrNotStrictPartialOrder = errors.New("order: tuple would violate strict partial order")

// ErrUnknownTuple is returned by Remove for a tuple that was never
// asserted through Add. Implied closure pairs cannot be removed on their
// own: retracting an implication requires retracting an asserting edge.
var ErrUnknownTuple = errors.New("order: tuple was never asserted")

// Tuple is one preference tuple (Better, Worse): "Better is preferred to
// Worse" (Def. 3.1 of the paper).
type Tuple struct {
	Better int
	Worse  int
}

// Relation is a strict partial order over the ids of a Domain, stored as
// transitively closed successor bitsets: succ[x] is the set of all y with
// x ≻ y. The invariant maintained by every mutator is that succ is the
// transitive closure of itself, irreflexive and asymmetric; thus Has is a
// single bit probe and relation intersection is word-parallel.
//
// The rows live in one slab (bitset.Rows): NewRelation, Clone and
// Remove's rebuild lay all n rows over one shared word array, so a
// relation costs a constant number of allocations whatever its domain
// size. Each row is capped at its own end; a row that grows copies itself
// out of the slab. A value interned after the relation was made gets a
// row of its own, appended by ensure.
//
// Derived views (Hasse diagram, maximal values, weights) are computed
// lazily and invalidated on mutation. The first read that needs them
// writes them, unsynchronised: before goroutines share a relation for
// reading, warm the views on one goroutine (Weights does it), or the
// readers race on that write. Rel's pair table is the exception; it is
// built atomically.
type Relation struct {
	dom  *Domain
	n    int
	succ []*bitset.Set // succ[x] = {y : x ≻ y}, transitively closed
	size int           // total number of tuples = Σ |succ[x]|

	// asserted records the tuples explicitly inserted through Add, in
	// insertion order — the base the closure is derived from. Remove
	// retracts an asserted tuple and rebuilds the closure from the rest;
	// implied pairs are not individually retractable.
	asserted []Tuple

	// lazy derived state
	derived *derivedViews

	// cmp is the lazily built dense pair-classification table behind Rel
	// (see cmptable.go). Atomic because shard workers race to rebuild it
	// after an invalidation while sharing one Relation instance.
	cmp atomic.Pointer[cmpTable]
}

type derivedViews struct {
	hasse   []*bitset.Set // transitive reduction
	maximal *bitset.Set   // values with no predecessor (Def. 5.3)
	minDist []int         // BFS distance from nearest maximal value over Hasse edges; -1 if isolated
	weights []float64     // weights[v] = 1/(minDist[v]+1), the answer Weight(v) gives
}

// NewRelation creates an empty relation over dom. The relation tracks the
// domain's current size and grows transparently as new values are interned.
func NewRelation(dom *Domain) *Relation {
	n := dom.Size()
	return &Relation{dom: dom, n: n, succ: bitset.Rows(n, n)}
}

// Dom returns the domain the relation is defined over.
func (r *Relation) Dom() *Domain { return r.dom }

// ensure grows the relation to span n values. Rows added here are single
// sets outside the slab: the domain grew after the relation was made.
func (r *Relation) ensure(n int) {
	if n <= r.n {
		return
	}
	for len(r.succ) < n {
		r.succ = append(r.succ, bitset.New(n))
	}
	r.n = n
	r.derived = nil // the views are sized by n
}

// Size returns the number of preference tuples |≻| (closure pairs).
func (r *Relation) Size() int { return r.size }

// N returns the number of value ids the relation currently spans.
func (r *Relation) N() int { return r.n }

// Has reports whether x ≻ y.
func (r *Relation) Has(x, y int) bool {
	return x >= 0 && x < r.n && r.succ[x].Contains(y)
}

// Succ returns the closed successor set of x (all y with x ≻ y). The caller
// must not mutate it.
func (r *Relation) Succ(x int) *bitset.Set {
	r.ensure(x + 1)
	return r.succ[x]
}

// CanAdd reports whether tuple (x ≻ y) can be inserted while preserving the
// strict-partial-order axioms: it fails iff x == y (irreflexivity) or
// y ≻ x already holds (asymmetry; transitivity is preserved by closure).
func (r *Relation) CanAdd(x, y int) bool {
	if x == y || x < 0 || y < 0 {
		return false
	}
	return !r.Has(y, x)
}

// Add inserts tuple (x ≻ y) and every pair its transitive closure implies:
// p ≻ s for all p ∈ pred(x) ∪ {x}, s ∈ succ(y) ∪ {y}. It returns
// ErrNotStrictPartialOrder if the insertion would violate the axioms and
// leaves the relation unchanged in that case. Adding a tuple the closure
// already implies leaves the closure unchanged but still records the
// assertion, so the tuple is individually retractable by Remove.
// This implements the (R_{i-1} ∪ {A_i})⁺ step of Def. 6.1.
func (r *Relation) Add(x, y int) error {
	if !r.CanAdd(x, y) {
		return fmt.Errorf("%w: (%d,%d)", ErrNotStrictPartialOrder, x, y)
	}
	if !r.HasAsserted(x, y) {
		r.asserted = append(r.asserted, Tuple{Better: x, Worse: y})
	}
	r.addClosure(x, y)
	return nil
}

// addClosure performs Add's closure math without touching the asserted
// base; Remove's rebuild re-applies retained assertions through it.
func (r *Relation) addClosure(x, y int) {
	m := x
	if y > m {
		m = y
	}
	r.ensure(m + 1)
	if r.succ[x].Contains(y) {
		return
	}

	// x and every predecessor p of x (x ∈ succ[p]) gain {y} ∪ succ(y).
	// succ[y] is read in place: it is never one of the rows written, as
	// y ≠ x and x ∈ succ[y] would mean y ≻ x, a cycle CanAdd refuses (and
	// Remove's rebuild re-adds a subset of a valid base).
	down := r.succ[y]
	for p, s := range r.succ {
		if p != x && !s.Contains(x) {
			continue
		}
		before := s.Count()
		s.Or(down)
		s.Add(y)
		r.size += s.Count() - before
	}
	r.derived = nil
	r.cmp.Store(nil)
}

// HasAsserted reports whether tuple (x ≻ y) was explicitly asserted
// through Add (as opposed to merely implied by the closure).
func (r *Relation) HasAsserted(x, y int) bool {
	for _, t := range r.asserted {
		if t.Better == x && t.Worse == y {
			return true
		}
	}
	return false
}

// Asserted returns the asserted base tuples in insertion order. The
// caller must not mutate the slice.
func (r *Relation) Asserted() []Tuple { return r.asserted }

// Remove retracts asserted tuple (x ≻ y) and rebuilds the closure from
// the remaining assertions. Pairs implied only through the retracted
// tuple disappear; pairs still derivable from other assertions survive.
// It returns ErrUnknownTuple if (x, y) was never asserted — implied
// closure pairs are not retractable on their own. Re-adding retained
// assertions cannot fail: a subset of a valid base implies a subset of
// the old closure, so no retained tuple can meet its own reverse.
func (r *Relation) Remove(x, y int) error {
	idx := -1
	for i, t := range r.asserted {
		if t.Better == x && t.Worse == y {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrUnknownTuple, x, y)
	}
	// Fresh rows and a fresh base: a Succ row or Asserted slice taken
	// before the Remove keeps its old content.
	kept := make([]Tuple, 0, len(r.asserted)-1)
	kept = append(append(kept, r.asserted[:idx]...), r.asserted[idx+1:]...)
	r.succ = bitset.Rows(r.n, r.n)
	r.size = 0
	r.derived = nil
	r.cmp.Store(nil)
	for _, t := range kept {
		r.addClosure(t.Better, t.Worse)
	}
	r.asserted = kept
	return nil
}

// AddValues is a convenience wrapper interning both strings before Add.
func (r *Relation) AddValues(better, worse string) error {
	b := r.dom.Intern(better)
	w := r.dom.Intern(worse)
	return r.Add(b, w)
}

// HasValues reports whether better ≻ worse using string values.
func (r *Relation) HasValues(better, worse string) bool {
	b, ok1 := r.dom.ID(better)
	w, ok2 := r.dom.ID(worse)
	return ok1 && ok2 && r.Has(b, w)
}

// CloneOnto returns a deep copy re-seated on another domain instance.
// The target must hold the same value table (a clone of the original):
// monitors deep-copy their schema at construction and re-seat the
// community's relations onto the copy, so later interning on the
// monitor's side cannot diverge from the ids baked in here.
func (r *Relation) CloneOnto(dom *Domain) *Relation {
	c := r.Clone()
	c.dom = dom
	return c
}

// Clone returns a deep copy sharing the domain.
func (r *Relation) Clone() *Relation {
	c := &Relation{dom: r.dom, n: r.n, size: r.size, succ: bitset.CloneRows(r.succ)}
	c.asserted = append([]Tuple(nil), r.asserted...)
	return c
}

// Tuples returns all preference tuples in deterministic (Better, Worse)
// lexicographic id order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.size)
	for x := 0; x < r.n; x++ {
		r.succ[x].ForEach(func(y int) bool {
			out = append(out, Tuple{Better: x, Worse: y})
			return true
		})
	}
	return out
}

// ForEachTuple calls fn for every tuple (x ≻ y).
func (r *Relation) ForEachTuple(fn func(x, y int)) {
	for x := 0; x < r.n; x++ {
		r.succ[x].ForEach(func(y int) bool {
			fn(x, y)
			return true
		})
	}
}

// Intersect returns the common preference relation r ∩ o (Def. 4.1) as a
// new relation: a Clone narrowed by IntersectWith.
func (r *Relation) Intersect(o *Relation) *Relation {
	c := r.Clone()
	c.IntersectWith(o)
	return c
}

// IntersectWith narrows r to r ∩ o in place (Def. 4.1). Both relations
// must share the same domain. The intersection of two strict partial
// orders is again a strict partial order (Theorem 4.2), so the closure
// invariant holds for free. The result spans the whole domain and asserts
// nothing: its tuples are common closure pairs, not any member's
// assertions. Rows are rewritten word by word, so r must be a relation
// no other goroutine reads, such as a fresh Clone.
func (r *Relation) IntersectWith(o *Relation) {
	if r.dom != o.dom {
		panic("order: intersecting relations over different domains")
	}
	r.ensure(r.dom.Size())
	r.size = 0
	for x, s := range r.succ {
		if x < o.n {
			s.And(o.succ[x])
			r.size += s.Count()
		} else {
			s.Clear()
		}
	}
	r.asserted = nil
	r.derived = nil
	r.cmp.Store(nil)
}

// IntersectionSize returns |r ∩ o| without materializing the intersection
// (similarity measure sim_i, Eq. 2).
func (r *Relation) IntersectionSize(o *Relation) int {
	n := r.n
	if o.n < n {
		n = o.n
	}
	c := 0
	for x := 0; x < n; x++ {
		c += r.succ[x].IntersectionCount(o.succ[x])
	}
	return c
}

// UnionSize returns |r ∪ o| without materializing the union (denominator of
// Jaccard similarity, Eq. 3).
func (r *Relation) UnionSize(o *Relation) int {
	c := 0
	n := r.n
	if o.n > n {
		n = o.n
	}
	for x := 0; x < n; x++ {
		switch {
		case x >= r.n:
			c += o.succ[x].Count()
		case x >= o.n:
			c += r.succ[x].Count()
		default:
			c += r.succ[x].UnionCount(o.succ[x])
		}
	}
	return c
}

// Equal reports whether two relations over the same domain contain exactly
// the same tuples.
func (r *Relation) Equal(o *Relation) bool {
	if r.size != o.size {
		return false
	}
	n := r.n
	if o.n > n {
		n = o.n
	}
	for x := 0; x < n; x++ {
		switch {
		case x >= r.n:
			if !o.succ[x].Empty() {
				return false
			}
		case x >= o.n:
			if !r.succ[x].Empty() {
				return false
			}
		default:
			if !r.succ[x].Equal(o.succ[x]) {
				return false
			}
		}
	}
	return true
}

// FromTuples builds a closed relation from raw (better, worse) string pairs,
// closing transitively as it goes. It returns ErrNotStrictPartialOrder if
// the pairs contain a reflexive tuple or a cycle.
func FromTuples(dom *Domain, pairs [][2]string) (*Relation, error) {
	r := NewRelation(dom)
	for _, p := range pairs {
		if err := r.AddValues(p[0], p[1]); err != nil {
			return nil, fmt.Errorf("adding (%s ≻ %s): %w", p[0], p[1], err)
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples that panics on error; intended for tests and
// examples where the input is a literal.
func MustFromTuples(dom *Domain, pairs [][2]string) *Relation {
	r, err := FromTuples(dom, pairs)
	if err != nil {
		panic(err)
	}
	return r
}

// String renders the tuples using domain values, e.g. "{Apple≻Sony, ...}".
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	r.ForEachTuple(func(x, y int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s≻%s", r.dom.Value(x), r.dom.Value(y))
	})
	b.WriteByte('}')
	return b.String()
}

// TuplesByValue returns tuples as string pairs sorted lexicographically,
// for golden-file tests and serialization.
func (r *Relation) TuplesByValue() [][2]string {
	out := make([][2]string, 0, r.size)
	r.ForEachTuple(func(x, y int) {
		out = append(out, [2]string{r.dom.Value(x), r.dom.Value(y)})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
