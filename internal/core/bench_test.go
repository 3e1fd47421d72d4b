package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/object"
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

var sinkBool bool

// BenchmarkFrontierIndex measures Frontier's membership index on its
// own, at a small and a large frontier, over ids spread across 10⁶ (an
// old stream's worth): building the frontier, a probe that hits, a probe
// that misses, and steady-size churn — remove the oldest member, add a
// new one — which is every arrival under a full sliding window. Run with
// -benchmem: only Add may allocate.
func BenchmarkFrontierIndex(b *testing.B) {
	for _, members := range []int{64, 4096} {
		// 2×members distinct ids: the first half are members, the rest the
		// misses; Churn slides a window of `members` around the whole ring.
		ids := rand.New(rand.NewSource(42)).Perm(1_000_000)[:2*members]
		full := core.NewFrontier()
		for _, id := range ids[:members] {
			full.Add(object.Object{ID: id})
		}
		b.Run(fmt.Sprintf("Add/members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			var f *core.Frontier
			for i := 0; i < b.N; i++ {
				if i%members == 0 {
					f = core.NewFrontier()
				}
				f.Add(object.Object{ID: ids[i%members]})
			}
		})
		b.Run(fmt.Sprintf("ContainsHit/members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBool = full.Contains(ids[i%members])
			}
		})
		b.Run(fmt.Sprintf("ContainsMiss/members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBool = full.Contains(ids[members+i%members])
			}
		})
		b.Run(fmt.Sprintf("Churn/members=%d", members), func(b *testing.B) {
			b.ReportAllocs()
			f := full.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Remove(ids[i%len(ids)])
				f.Add(object.Object{ID: ids[(i+members)%len(ids)]})
			}
		})
	}
}
