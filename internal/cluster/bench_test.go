package cluster_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/order"
)

// BenchmarkSimAttr times one attribute-pair similarity per exact measure
// over a 60-value domain (the movie workload's largest attribute).
func BenchmarkSimAttr(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	dom := order.NewDomain("actor")
	for i := 0; i < 60; i++ {
		dom.Intern("a" + strconv.Itoa(i))
	}
	rels := make([]*order.Relation, 2)
	for i := range rels {
		rels[i] = order.NewRelation(dom)
		for e := 0; e < 90; e++ {
			_ = rels[i].Add(r.Intn(60), r.Intn(60)) // refused tuples are skipped
		}
	}
	for _, m := range exactMeasures {
		b.Run(m.String(), func(b *testing.B) {
			for b.Loop() {
				cluster.SimAttr(m, rels[0], rels[1])
			}
		})
	}
}

// BenchmarkAgglomerative times a whole set-up at the benchmark's
// community size: 160 movie users, the default measure and its
// frequency-vector counterpart.
func BenchmarkAgglomerative(b *testing.B) {
	users := datagen.Generate(datagen.Movie().Scaled(1000, 160)).Users
	for _, tc := range []struct {
		m cluster.Measure
		h float64
	}{
		{cluster.WeightedJaccard, 3.3},
		{cluster.VectorWeightedJaccard, 3.0},
	} {
		b.Run(tc.m.String(), func(b *testing.B) {
			for b.Loop() {
				cluster.Agglomerative(users, tc.m, tc.h)
			}
		})
	}
}
