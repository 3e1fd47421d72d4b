package window_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// BenchmarkBaselineSWProcess measures Alg. 4's per-object cost, including
// expiry mending, at W=256.
func BenchmarkBaselineSWProcess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, objs := fixtures.RandomWorld(r, 32, 3, 8, 4096, 14)
	eng := window.NewBaselineSW(users, 256, &stats.Counters{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		o.ID = i // keep ids monotone across wraparounds
		eng.Process(o)
	}
}

// BenchmarkFilterThenVerifySWProcess measures Alg. 5's per-object cost on
// the same workload (4 clusters of 8 users).
func BenchmarkFilterThenVerifySWProcess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, objs := fixtures.RandomWorld(r, 32, 3, 8, 4096, 14)
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
	eng := window.NewFilterThenVerifySW(users, clusters, 256, &stats.Counters{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		o.ID = i
		eng.Process(o)
	}
}

// BenchmarkFilterThenVerifySWExpiryClustered is the expiry-heavy shape:
// three clusters of four near-identical users over small domains, so most
// expiring objects sit in several members' frontiers at once and every
// arrival runs both mend tiers. Run with -benchmem: the mend allocates
// nothing per member.
func BenchmarkFilterThenVerifySWExpiryClustered(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, clusters, objs := clusteredWorld(r, 3, 4, 3, 7, 4096)
	eng := window.NewFilterThenVerifySW(users, clusters, 256, &stats.Counters{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i%len(objs)]
		o.ID = i
		eng.Process(o)
	}
}
