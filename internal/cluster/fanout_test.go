package cluster_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
)

// TestDendrogramIgnoresGOMAXPROCS clusters one community inline
// (GOMAXPROCS=1) and fanned out over four Ps, under every measure and
// once to a target count: every merge, similarity bits included, every
// member list and every common relation must come out the same.
func TestDendrogramIgnoresGOMAXPROCS(t *testing.T) {
	users := datagen.Generate(datagen.Movie().Scaled(1000, 64)).Users
	if n := len(users); n*(n-1)/2 < cluster.MinFanOutPairs {
		t.Fatalf("%d users stay below the fan-out threshold", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type build struct {
		name string
		run  func() *cluster.Result
	}
	var cases []build
	for _, tc := range severalClusterCuts {
		cases = append(cases, build{tc.m.String(), func() *cluster.Result { return cluster.Agglomerative(users, tc.m, tc.h) }})
	}
	cases = append(cases, build{"k=7", func() *cluster.Result { return cluster.AgglomerativeK(users, cluster.WeightedIntersection, 7) }})

	for _, c := range cases {
		runtime.GOMAXPROCS(1)
		inline := c.run()
		runtime.GOMAXPROCS(4)
		fanned := c.run()
		if len(inline.Dendrogram) == 0 || len(inline.Clusters) == 1 {
			t.Errorf("%s: %d merges and %d clusters; pick a cut that exercises the heap and the cut",
				c.name, len(inline.Dendrogram), len(inline.Clusters))
		}
		if len(fanned.Dendrogram) != len(inline.Dendrogram) {
			t.Fatalf("%s: %d merges fanned out, %d inline", c.name, len(fanned.Dendrogram), len(inline.Dendrogram))
		}
		for i, st := range fanned.Dendrogram {
			in := inline.Dendrogram[i]
			if st.A != in.A || st.B != in.B || st.Result != in.Result || math.Float64bits(st.Sim) != math.Float64bits(in.Sim) {
				t.Fatalf("%s merge %d: %+v (%x) fanned out, %+v (%x) inline",
					c.name, i, st, math.Float64bits(st.Sim), in, math.Float64bits(in.Sim))
			}
		}
		if len(fanned.Clusters) != len(inline.Clusters) {
			t.Fatalf("%s: %d clusters fanned out, %d inline", c.name, len(fanned.Clusters), len(inline.Clusters))
		}
		for i, fc := range fanned.Clusters {
			ic := inline.Clusters[i]
			if !slices.Equal(fc.Members, ic.Members) {
				t.Errorf("%s cluster %d: members %v fanned out, %v inline", c.name, i, fc.Members, ic.Members)
			}
			for d := 0; d < ic.Common.Dims(); d++ {
				if !fc.Common.Relation(d).Equal(ic.Common.Relation(d)) {
					t.Errorf("%s cluster %d: common relations differ on attribute %d", c.name, i, d)
				}
			}
		}
	}
}
