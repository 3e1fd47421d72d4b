package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pref"
	"repro/internal/stats"
)

// BenchmarkBaselineProcess measures Alg. 1's per-object cost.
func BenchmarkBaselineProcess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, objs := randomWorld(r, 32, 3, 8, 4096, 14)
	eng := core.NewBaseline(users, &stats.Counters{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(objs[i%len(objs)])
	}
}

// BenchmarkFilterThenVerifyProcess measures Alg. 2's per-object cost on
// the same workload (4 clusters of 8 users).
func BenchmarkFilterThenVerifyProcess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, objs := randomWorld(r, 32, 3, 8, 4096, 14)
	var clusters []core.Cluster
	for g := 0; g < 4; g++ {
		var members []int
		var profs []*pref.Profile
		for u := g * 8; u < (g+1)*8; u++ {
			members = append(members, u)
			profs = append(profs, users[u])
		}
		clusters = append(clusters, core.Cluster{Members: members, Common: pref.Common(profs)})
	}
	eng := core.NewFilterThenVerify(users, clusters, &stats.Counters{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(objs[i%len(objs)])
	}
}

// BenchmarkParallelProcess measures the goroutine fan-out variant.
func BenchmarkParallelProcess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, objs := randomWorld(r, 32, 3, 8, 4096, 14)
	var clusters []core.Cluster
	for g := 0; g < 4; g++ {
		var members []int
		var profs []*pref.Profile
		for u := g * 8; u < (g+1)*8; u++ {
			members = append(members, u)
			profs = append(profs, users[u])
		}
		clusters = append(clusters, core.Cluster{Members: members, Common: pref.Common(profs)})
	}
	eng := mustSharded(b, users, clusters, 4, &stats.Counters{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(objs[i%len(objs)])
	}
}
