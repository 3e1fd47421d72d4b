package cluster

import (
	"fmt"

	"repro/internal/order"
	"repro/internal/pref"
)

// Measure identifies an inter-cluster similarity function.
type Measure int

const (
	// IntersectionSize is sim_i (Eq. 2): |≻_U1 ∩ ≻_U2| per attribute.
	IntersectionSize Measure = iota
	// Jaccard is sim_j (Eq. 3): intersection size over union size.
	Jaccard
	// WeightedIntersection is sim_wi (Eq. 4): common tuples weighted by the
	// average of the better value's inverse distance-from-maximal in the
	// two cluster relations.
	WeightedIntersection
	// WeightedJaccard is sim_wj (Eq. 5): weighted intersection over
	// weighted union.
	WeightedJaccard
	// VectorJaccard is the approximate-regime Jaccard (Eq. 9) over
	// preference-tuple frequency vectors of the clusters' members.
	VectorJaccard
	// VectorWeightedJaccard is Eq. 10: frequency vectors where each
	// member's contribution is weighted by its own distance-from-maximal
	// weight of the tuple's better value.
	VectorWeightedJaccard
)

// String returns the measure's paper name.
func (m Measure) String() string {
	switch m {
	case IntersectionSize:
		return "sim_i"
	case Jaccard:
		return "sim_j"
	case WeightedIntersection:
		return "sim_wi"
	case WeightedJaccard:
		return "sim_wj"
	case VectorJaccard:
		return "sim_j(vec)"
	case VectorWeightedJaccard:
		return "sim_wj(vec)"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// IsVector reports whether the measure operates on member frequency
// vectors (Sec. 6.3) rather than on the clusters' common relations.
func (m Measure) IsVector() bool {
	return m == VectorJaccard || m == VectorWeightedJaccard
}

// SimAttr computes sim^d(U1, U2) between two cluster relations on one
// attribute for the four exact measures of Sec. 5. The weighted measures
// take all their sums from one row-wise pass (order.Relation.WeightedOverlap),
// bit-identical to a tuple-by-tuple evaluation of Eqs. 4–5.
func SimAttr(m Measure, a, b *order.Relation) float64 {
	switch m {
	case IntersectionSize:
		return float64(a.IntersectionSize(b))
	case Jaccard:
		u := a.UnionSize(b)
		if u == 0 {
			return 0
		}
		return float64(a.IntersectionSize(b)) / float64(u)
	case WeightedIntersection:
		wi, _, _ := a.WeightedOverlap(b)
		return wi
	case WeightedJaccard:
		wi, da, db := a.WeightedOverlap(b)
		den := wi + da + db
		if den == 0 {
			return 0
		}
		return wi / den
	default:
		panic("cluster: SimAttr called with a vector measure; use SimVectors")
	}
}

// Sim computes sim(U1, U2) = Σ_d sim^d(U1, U2) (Eq. 1) between two
// cluster profiles under an exact measure.
func Sim(m Measure, a, b *pref.Profile) float64 {
	s := 0.0
	for d := 0; d < a.Dims(); d++ {
		s += SimAttr(m, a.Relation(d), b.Relation(d))
	}
	return s
}

// Vector is one cluster's per-attribute preference-tuple frequency vector
// (Sec. 6.3). For attribute d with domain size m there are m·(m−1)
// dimensions, indexed by better*m+worse; entries are stored sparsely, as
// parallel key/value slices in ascending key order. Entries hold Σ over
// members of the member's contribution (1 for plain frequency, the
// member's weight of the better value for the weighted variant); Size is
// the member count so entries/Size is the frequency.
//
// Every float64 sum over a Vector runs in a fixed order — per key in
// member order, across keys in ascending key order — so equal inputs give
// bit-equal vectors and similarities on every call, in every process.
type Vector struct {
	keys [][]int64   // per attribute: tuple keys, ascending
	vals [][]float64 // vals[d][i] is the summed contribution of keys[d][i]
	size int         // |U|
}

// tupleKey packs (attribute value ids) into a sparse vector key.
func tupleKey(better, worse, domSize int) int64 {
	return int64(better)*int64(domSize) + int64(worse)
}

// NewVector builds the frequency vector of a set of member profiles.
// weighted selects Eq. 10's per-member weighting over Eq. 9's counts.
func NewVector(members []*pref.Profile, weighted bool) *Vector {
	if len(members) == 0 {
		panic("cluster: vector of empty member set")
	}
	v := memberVector(members[0], weighted)
	for _, m := range members[1:] {
		v = v.Merge(memberVector(m, weighted))
	}
	return v
}

// memberVector is the vector of one member. ForEachTuple emits (x, y)
// lexicographically and y is below the domain size, so the keys come out
// ascending. (Members of one community share their Domain instances, so
// every member packs its keys with the same domain size.)
func memberVector(p *pref.Profile, weighted bool) *Vector {
	dims := p.Dims()
	v := &Vector{keys: make([][]int64, dims), vals: make([][]float64, dims), size: 1}
	for d := 0; d < dims; d++ {
		r := p.Relation(d)
		domSize := p.Domains()[d].Size()
		keys := make([]int64, 0, r.Size())
		vals := make([]float64, 0, r.Size())
		var ws []float64
		if weighted {
			ws = r.Weights()
		}
		r.ForEachTuple(func(x, y int) {
			w := 1.0
			if weighted {
				w = ws[x]
			}
			keys = append(keys, tupleKey(x, y, domSize))
			vals = append(vals, w)
		})
		v.keys[d], v.vals[d] = keys, vals
	}
	return v
}

// Merge returns the vector of the union of two disjoint member sets; the
// per-tuple sums add and sizes add, so the merged frequencies are exact
// without revisiting members.
func (v *Vector) Merge(o *Vector) *Vector {
	dims := len(v.keys)
	out := &Vector{keys: make([][]int64, dims), vals: make([][]float64, dims), size: v.size + o.size}
	for d := 0; d < dims; d++ {
		ak, av, bk, bv := v.keys[d], v.vals[d], o.keys[d], o.vals[d]
		keys := make([]int64, 0, len(ak)+len(bk))
		vals := make([]float64, 0, len(ak)+len(bk))
		i, j := 0, 0
		for i < len(ak) && j < len(bk) {
			switch {
			case ak[i] < bk[j]:
				keys, vals = append(keys, ak[i]), append(vals, av[i])
				i++
			case ak[i] > bk[j]:
				keys, vals = append(keys, bk[j]), append(vals, bv[j])
				j++
			default:
				keys, vals = append(keys, ak[i]), append(vals, av[i]+bv[j])
				i++
				j++
			}
		}
		keys, vals = append(keys, ak[i:]...), append(vals, av[i:]...)
		out.keys[d], out.vals[d] = append(keys, bk[j:]...), append(vals, bv[j:]...)
	}
	return out
}

// SimVectors computes Σ_d Jaccard over frequency vectors (Eqs. 9–10):
// Σ min(U(i), V(i)) / Σ max(U(i), V(i)) per attribute, summed over
// attributes per Eq. 1. A tuple only one side holds has frequency 0 on
// the other: it adds nothing to the minima and its frequency to the maxima.
func SimVectors(a, b *Vector) float64 {
	total := 0.0
	as, bs := float64(a.size), float64(b.size)
	for d := range a.keys {
		ak, av, bk, bv := a.keys[d], a.vals[d], b.keys[d], b.vals[d]
		var mins, maxs float64
		i, j := 0, 0
		for i < len(ak) && j < len(bk) {
			switch {
			case ak[i] < bk[j]:
				maxs += av[i] / as
				i++
			case ak[i] > bk[j]:
				maxs += bv[j] / bs
				j++
			default:
				af, bf := av[i]/as, bv[j]/bs
				mins += min(af, bf)
				maxs += max(af, bf)
				i++
				j++
			}
		}
		for ; i < len(ak); i++ {
			maxs += av[i] / as
		}
		for ; j < len(bk); j++ {
			maxs += bv[j] / bs
		}
		if maxs > 0 {
			total += mins / maxs
		}
	}
	return total
}
