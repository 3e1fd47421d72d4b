package order

import (
	"fmt"

	"repro/internal/bitset"
)

// computeDerived populates the lazy views: Hasse diagram (transitive
// reduction), the maximal-value set, the multi-source BFS distance from
// the nearest maximal value over Hasse edges, and the value weights that
// distance defines. The paper's weighted similarity measures (Eqs. 4, 5,
// 10) weigh the better value v of each tuple by 1/(min_{s∈S} D(s,v) + 1),
// where D is the shortest distance in the Hasse diagram (Example 5.4
// fixes this interpretation: in a chain Samsung→Lenovo→Apple the weight
// of Apple is 1/3, which requires path distance 2, not closure distance 1).
func (r *Relation) computeDerived() *derivedViews {
	if r.derived != nil {
		return r.derived
	}
	n := r.n
	d := &derivedViews{
		hasse:   make([]*bitset.Set, n),
		maximal: bitset.New(n),
		minDist: make([]int, n),
	}

	// Hasse edge (x,y): y ∈ succ[x] and there is no z ∈ succ[x] with
	// y ∈ succ[z]. Computed as succ[x] − ⋃_{z∈succ[x]} succ[z].
	for x := 0; x < n; x++ {
		h := r.succ[x].Clone()
		r.succ[x].ForEach(func(z int) bool {
			h.AndNot(r.succ[z])
			return true
		})
		d.hasse[x] = h
	}

	// Non-maximal values are those with at least one predecessor.
	hasPred := bitset.New(n)
	for x := 0; x < n; x++ {
		hasPred.Or(r.succ[x])
	}
	for v := 0; v < n; v++ {
		if !hasPred.Contains(v) {
			d.maximal.Add(v)
		}
	}

	// Multi-source BFS over Hasse edges from all maximal values. Every
	// value with a predecessor is reachable from some maximal value in a
	// finite DAG, so minDist is well defined; isolated values get 0
	// (they are themselves maximal).
	for v := range d.minDist {
		d.minDist[v] = -1
	}
	queue := make([]int, 0, n)
	d.maximal.ForEach(func(v int) bool {
		d.minDist[v] = 0
		queue = append(queue, v)
		return true
	})
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d.hasse[v].ForEach(func(w int) bool {
			if d.minDist[w] == -1 {
				d.minDist[w] = d.minDist[v] + 1
				queue = append(queue, w)
			}
			return true
		})
	}

	d.weights = make([]float64, n)
	for v, dist := range d.minDist {
		if dist < 0 {
			dist = 0
		}
		d.weights[v] = 1.0 / float64(dist+1)
	}

	r.derived = d
	return d
}

// Maximal returns the set of maximal values S (Def. 5.3): values no other
// value is preferred over. Note that values untouched by any tuple are
// maximal by the definition. The caller must not mutate the result.
func (r *Relation) Maximal() *bitset.Set {
	return r.computeDerived().maximal
}

// HasseEdges returns the transitive reduction as a per-value successor set.
// The caller must not mutate the result.
func (r *Relation) HasseEdges() []*bitset.Set {
	return r.computeDerived().hasse
}

// HasseTuples returns the transitive reduction as a tuple list in
// deterministic order.
func (r *Relation) HasseTuples() []Tuple {
	h := r.computeDerived().hasse
	var out []Tuple
	for x := 0; x < r.n; x++ {
		h[x].ForEach(func(y int) bool {
			out = append(out, Tuple{Better: x, Worse: y})
			return true
		})
	}
	return out
}

// DistFromMaximal returns min_{s∈S} D(s,v) — the length of the shortest
// Hasse path from any maximal value to v. Maximal (and isolated) values
// have distance 0.
func (r *Relation) DistFromMaximal(v int) int {
	d := r.computeDerived()
	if v < 0 || v >= r.n || d.minDist[v] < 0 {
		return 0
	}
	return d.minDist[v]
}

// Weight returns the weight of value v in this relation:
// 1/(min_{s∈S} D(s,v) + 1). Values at the top of the order get weight 1;
// deeper values matter less (Sec. 5, "values at the top of a partial order
// matter more ... in terms of their impact on which objects belong to the
// Pareto frontier").
func (r *Relation) Weight(v int) float64 {
	if w := r.Weights(); v >= 0 && v < len(w) {
		return w[v]
	}
	return 1
}

// Weights returns Weight(v) for every v < N() as one slice, cached with
// the Hasse views and dropped with them on the next mutation; a value id
// past N() weighs 1. The caller must not mutate the result.
func (r *Relation) Weights() []float64 {
	return r.computeDerived().weights
}

// WeightedSize returns Σ over tuples (v,v') of Weight(v) — the relation's
// total mass under the weighting scheme, used by weighted Jaccard
// denominators (Eq. 5).
func (r *Relation) WeightedSize() float64 {
	t := 0.0
	for x, w := range r.Weights() {
		t = addTimes(t, w, r.succ[x].Count())
	}
	return t
}

// WeightedOverlap returns the three sums the weighted measures are made
// of (Eqs. 4–5), from one pass over the two relations' successor rows:
// wi sums (Weight_r(x)+Weight_o(x))/2 over the common tuples (x, y), dr
// sums Weight_r(x) over the tuples of r that o lacks, and do sums
// Weight_o(x) over the tuples of o that r lacks. Each sum is bit-for-bit
// what adding its term tuple by tuple in (x, y) order gives: every tuple
// of row x carries the same term, so only the row's popcounts are needed,
// but the term is still added once per tuple — float64(c)*w rounds once
// where c additions round c times, and the last ulp decides near-ties
// between cluster merges. Rows past the shorter relation's N() count
// wholly as difference.
func (r *Relation) WeightedOverlap(o *Relation) (wi, dr, do float64) {
	wr, wo := r.Weights(), o.Weights()
	n := min(r.n, o.n)
	for x := 0; x < n; x++ {
		rx, ox := r.succ[x], o.succ[x]
		ci := rx.IntersectionCount(ox)
		wi = addTimes(wi, (wr[x]+wo[x])/2, ci)
		dr = addTimes(dr, wr[x], rx.Count()-ci)
		do = addTimes(do, wo[x], ox.Count()-ci)
	}
	for x := n; x < r.n; x++ {
		dr = addTimes(dr, wr[x], r.succ[x].Count())
	}
	for x := n; x < o.n; x++ {
		do = addTimes(do, wo[x], o.succ[x].Count())
	}
	return wi, dr, do
}

// addTimes returns s after adding w to it c times, one rounding each.
func addTimes(s, w float64, c int) float64 {
	for ; c > 0; c-- {
		s += w
	}
	return s
}

// IsStrictPartialOrder verifies the closure invariant from first
// principles: irreflexivity, asymmetry, transitivity. It is O(n·|≻|) and
// intended for tests and debugging, not hot paths.
func (r *Relation) IsStrictPartialOrder() error {
	for x := 0; x < r.n; x++ {
		if r.succ[x].Contains(x) {
			return fmt.Errorf("order: reflexive tuple (%d,%d)", x, x)
		}
		var err error
		r.succ[x].ForEach(func(y int) bool {
			if r.succ[y].Contains(x) {
				err = fmt.Errorf("order: asymmetry violated by (%d,%d)", x, y)
				return false
			}
			if !r.succ[y].SubsetOf(r.succ[x]) {
				err = fmt.Errorf("order: transitivity violated below (%d,%d)", x, y)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
