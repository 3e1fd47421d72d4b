package cluster_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/order"
)

// weightedIntersection and weightedDifference are the tuple-by-tuple
// evaluation of Eqs. 4–5 that SimAttr used before it took its sums from
// order.Relation.WeightedOverlap, kept verbatim as the reference the
// row-wise pass must match to the last bit.

// weightedIntersection is Eq. 4: for every common tuple (v, v'), the
// average of v's weight in a and in b.
func weightedIntersection(a, b *order.Relation) float64 {
	s := 0.0
	a.ForEachTuple(func(x, y int) {
		if b.Has(x, y) {
			s += (a.Weight(x) + b.Weight(x)) / 2
		}
	})
	return s
}

// weightedDifference sums, over tuples (v,v') in a but not b, v's weight
// in a — the second and third terms of Eq. 5's denominator.
func weightedDifference(a, b *order.Relation) float64 {
	s := 0.0
	a.ForEachTuple(func(x, y int) {
		if !b.Has(x, y) {
			s += a.Weight(x)
		}
	})
	return s
}

// referenceSimAttr is SimAttr over the per-tuple walks; the two unweighted
// measures count tuples one by one instead of by popcount.
func referenceSimAttr(m cluster.Measure, a, b *order.Relation) float64 {
	common, union := 0, b.Size()
	a.ForEachTuple(func(x, y int) {
		if b.Has(x, y) {
			common++
		} else {
			union++
		}
	})
	switch m {
	case cluster.IntersectionSize:
		return float64(common)
	case cluster.Jaccard:
		if union == 0 {
			return 0
		}
		return float64(common) / float64(union)
	case cluster.WeightedIntersection:
		return weightedIntersection(a, b)
	default:
		wi := weightedIntersection(a, b)
		den := wi + weightedDifference(a, b) + weightedDifference(b, a)
		if den == 0 {
			return 0
		}
		return wi / den
	}
}

var exactMeasures = []cluster.Measure{
	cluster.IntersectionSize, cluster.Jaccard,
	cluster.WeightedIntersection, cluster.WeightedJaccard,
}

// relationPairs builds, per seed, relations over one domain of 1–130
// values (past the 64-bit word, past two words): random closures of
// several densities, the empty relation, a chain, a two-level order (an
// antichain of maximal values over an antichain of minimal ones), and
// relations built after more values were interned, so N() differs inside
// a pair.
func relationPairs(seed int64) []*order.Relation {
	r := rand.New(rand.NewSource(seed))
	size := 1 + r.Intn(130)
	dom := order.NewDomain("d")
	for i := 0; i < size; i++ {
		dom.Intern("v" + strconv.Itoa(i))
	}
	random := func(edges int) *order.Relation {
		rel := order.NewRelation(dom)
		n := dom.Size()
		for e := 0; e < edges; e++ {
			_ = rel.Add(r.Intn(n), r.Intn(n)) // a refused tuple (reflexive, cyclic) is just skipped
		}
		return rel
	}
	rels := []*order.Relation{order.NewRelation(dom), random(size / 2), random(size), random(3 * size)}

	chain := order.NewRelation(dom)
	perm := r.Perm(size)
	for i := 1; i < len(perm); i++ {
		_ = chain.Add(perm[i-1], perm[i])
	}
	levels := order.NewRelation(dom)
	for _, top := range perm[:size/3] {
		for _, bottom := range perm[size-size/3:] {
			_ = levels.Add(top, bottom)
		}
	}
	rels = append(rels, chain, levels)

	// Values interned now are past the N() of everything above.
	for i := 0; i < 1+r.Intn(70); i++ {
		dom.Intern("late" + strconv.Itoa(i))
	}
	return append(rels, order.NewRelation(dom), random(size), random(2*dom.Size()))
}

func TestSimAttrMatchesTupleWalkReference(t *testing.T) {
	pairs := 0
	for seed := int64(1); seed <= 40; seed++ {
		rels := relationPairs(seed)
		for i, a := range rels {
			for j, b := range rels { // both orders, and every relation with itself
				for _, m := range exactMeasures {
					got, want := cluster.SimAttr(m, a, b), referenceSimAttr(m, a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d, %v(rel %d, rel %d) with N() %d and %d: got %v (%x), reference %v (%x)",
							seed, m, i, j, a.N(), b.N(), got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				pairs++
			}
		}
	}
	t.Logf("%d relation pairs × %d measures bit-equal to the reference", pairs, len(exactMeasures))
}

// dendrogramDigest is FNV-1a-64 over every merge's ids and similarity bits.
func dendrogramDigest(res *cluster.Result) string {
	h := fnv.New64a()
	for _, st := range res.Dendrogram {
		fmt.Fprintf(h, "%d %d %d %x;", st.A, st.B, st.Result, math.Float64bits(st.Sim))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPinnedDendrogram holds a whole clustering to the per-tuple
// implementation: the digest was recorded at the commit before the
// row-wise kernel (PR 18), and one moved ulp in one similarity reorders
// near-ties in the merge heap or flips a comparison with the cut.
func TestPinnedDendrogram(t *testing.T) {
	ds := datagen.Generate(datagen.Movie().Scaled(1000, 200))
	res := cluster.Agglomerative(ds.Users, cluster.WeightedJaccard, 3.3)
	if got := len(res.Clusters); got != 10 {
		t.Errorf("%d clusters, want 10", got)
	}
	if got, want := dendrogramDigest(res), "338e18d9edf08a40"; got != want {
		t.Errorf("dendrogram digest %s, want %s", got, want)
	}
}

// severalClusterCuts pairs every measure with a cut that leaves several
// clusters on 64 movie users, so a build exercises both the heap and the
// cut.
var severalClusterCuts = []struct {
	m cluster.Measure
	h float64
}{
	{cluster.IntersectionSize, 2000},
	{cluster.Jaccard, 3.3},
	{cluster.WeightedIntersection, 600},
	{cluster.WeightedJaccard, 3.3},
	{cluster.VectorJaccard, 3.0},
	{cluster.VectorWeightedJaccard, 3.0},
}

// TestClusteringIsDeterministic clusters one community three times under
// each measure: every merge must repeat, similarity bits included. The
// vector measures failed this while their vectors were Go maps (the
// order of the float64 additions followed the map's iteration order).
func TestClusteringIsDeterministic(t *testing.T) {
	users := datagen.Generate(datagen.Movie().Scaled(1000, 64)).Users
	for _, tc := range severalClusterCuts {
		m, h := tc.m, tc.h
		first := cluster.Agglomerative(users, m, h)
		if len(first.Dendrogram) == 0 || len(first.Clusters) == 1 {
			t.Errorf("%v: cut %v leaves %d merges and %d clusters; pick one that exercises the heap and the cut",
				m, h, len(first.Dendrogram), len(first.Clusters))
		}
		for run := 2; run <= 3; run++ {
			again := cluster.Agglomerative(users, m, h)
			if len(again.Dendrogram) != len(first.Dendrogram) {
				t.Fatalf("%v run %d: %d merges, first run %d", m, run, len(again.Dendrogram), len(first.Dendrogram))
			}
			for i, st := range again.Dendrogram {
				f := first.Dendrogram[i]
				if st.A != f.A || st.B != f.B || st.Result != f.Result || math.Float64bits(st.Sim) != math.Float64bits(f.Sim) {
					t.Fatalf("%v run %d merge %d: %+v (%x), first run %+v (%x)",
						m, run, i, st, math.Float64bits(st.Sim), f, math.Float64bits(f.Sim))
				}
			}
		}
	}
}
