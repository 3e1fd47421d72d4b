package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// BenchmarkBaselineProcess measures Alg. 1's per-object cost.
func BenchmarkBaselineProcess(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	users, objs := fixtures.RandomWorld(r, 32, 3, 8, 4096, 14)
	benchmarkRebuilt(b, objs, func(ctr *stats.Counters) *core.FilterThenVerify {
		return core.NewBaseline(users, ctr)
	})
}

// BenchmarkFilterThenVerifyProcess measures Alg. 2's per-object cost on
// the same workload (4 clusters of 8 users).
func BenchmarkFilterThenVerifyProcess(b *testing.B) {
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
	benchmarkRebuilt(b, objs, func(ctr *stats.Counters) *core.FilterThenVerify {
		return core.NewFilterThenVerify(users, clusters, ctr)
	})
}

// benchmarkRebuilt feeds objs to an engine from build, built afresh, off
// the clock, at every pass: the ids repeat from one pass to the next, and
// an engine that had seen them would answer every later arrival as the
// twin of an alive object. It reports the comparisons and twins per
// object.
func benchmarkRebuilt(b *testing.B, objs []object.Object, build func(*stats.Counters) *core.FilterThenVerify) {
	ctr := &stats.Counters{}
	var eng *core.FilterThenVerify
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(objs) == 0 {
			b.StopTimer()
			eng = build(ctr)
			b.StartTimer()
		}
		eng.Process(objs[i%len(objs)])
	}
	b.ReportMetric(float64(ctr.Comparisons)/float64(b.N), "cmp/op")
	b.ReportMetric(float64(ctr.Twins)/float64(b.N), "twins/op")
}

// BenchmarkParallelProcess measures the goroutine fan-out variant.
func BenchmarkParallelProcess(b *testing.B) {
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

// processStream is the workload of BenchmarkProcessDistinct and
// BenchmarkProcessTwins: 32 users in 4 clusters, 4 attributes over 16
// values, and a stream of n objects that cycles through the first
// `tuples` attribute tuples of the catalog — n of them is a stream that
// never repeats one, fewer is a stream of twins. Ids are fresh.
func processStream(n, tuples int) ([]*pref.Profile, []core.Cluster, []object.Object) {
	const dims, domSize = 4, 16
	r := rand.New(rand.NewSource(42))
	users, _ := fixtures.RandomWorld(r, 32, dims, domSize, 0, 24)
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
	catalog := r.Perm(domSize * domSize * domSize * domSize)[:tuples]
	objs := make([]object.Object, n)
	for i := range objs {
		attrs := make([]int32, dims)
		for d, code := 0, catalog[i%tuples]; d < dims; d, code = d+1, code/domSize {
			attrs[d] = int32(code % domSize)
		}
		objs[i] = object.Object{ID: i, Attrs: attrs}
	}
	return users, clusters, objs
}

func benchmarkProcess(b *testing.B, tuples int) {
	const n = 8192
	users, clusters, objs := processStream(n, tuples)
	b.ReportAllocs()
	var eng *core.FilterThenVerify
	ctr := &stats.Counters{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			eng = core.NewFilterThenVerify(users, clusters, ctr)
			b.StartTimer()
		}
		eng.Process(objs[i%n])
	}
	b.ReportMetric(float64(ctr.Comparisons)/float64(b.N), "cmp/op")
	b.ReportMetric(float64(ctr.Twins)/float64(b.N), "twins/op")
}

// BenchmarkProcessDistinct is the class table where it has nothing to
// give: no arrival repeats a tuple, every one founds a class (a hash, a
// probe that misses, a slot, a link) and then runs the full Alg. 2 scan.
// Run it at the parent of the tuple-class change too: cmp/op must be
// equal and ns/op within noise.
func BenchmarkProcessDistinct(b *testing.B) { benchmarkProcess(b, 8192) }

// BenchmarkProcessTwins is the other end: the same stream length drawn
// from 512 tuples, so fifteen arrivals in sixteen are answered from
// C_class without a comparison.
func BenchmarkProcessTwins(b *testing.B) { benchmarkProcess(b, 512) }

// BenchmarkProcessMovieCluster is batch_ftv's shape without the Monitor:
// one cluster of 160 movie users, whose common relation is the
// intersection of 160 relations, over a stream drawn from a 2¹⁵-object
// movie catalogue (twins included). Its P_U grows into the thousands, so
// most filter scans read the value postings, and its verify tier reads a
// member table; filter/op and verify/op count the comparisons each tier
// still makes.
func BenchmarkProcessMovieCluster(b *testing.B) {
	const n = 16384
	ds := datagen.Generate(datagen.Movie().Scaled(1<<15, 160))
	members := make([]int, len(ds.Users))
	for c := range members {
		members[c] = c
	}
	clusters := []core.Cluster{{Members: members, Common: pref.Common(ds.Users)}}
	objs := make([]object.Object, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(ds.Objects))[:n] {
		objs[i] = object.Object{ID: i, Attrs: ds.Objects[k].Attrs}
	}
	b.ReportAllocs()
	var eng *core.FilterThenVerify
	ctr := &stats.Counters{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			eng = core.NewFilterThenVerify(ds.Users, clusters, ctr)
			b.StartTimer()
		}
		eng.Process(objs[i%n])
	}
	b.ReportMetric(float64(ctr.FilterComparisons)/float64(b.N), "filter/op")
	b.ReportMetric(float64(ctr.VerifyComparisons)/float64(b.N), "verify/op")
	b.ReportMetric(float64(ctr.Twins)/float64(b.N), "twins/op")
}

var sinkObject object.Object

// BenchmarkResolve is the class table on its own, per arrival: a stream
// of new tuples (hash, a probe that misses, a slot, an id link; the
// table's doublings amortised in) and a stream of twins (hash, a probe
// that hits, an id link). It is what every arrival pays before Algs. 1–2
// start, and all a twin pays besides copying C_class out.
func BenchmarkResolve(b *testing.B) {
	for _, tuples := range []int{8192, 512} {
		_, _, objs := processStream(8192, tuples)
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			b.ReportAllocs()
			var tc core.TupleClasses
			for i := 0; i < b.N; i++ {
				if i%len(objs) == 0 {
					tc = core.NewTupleClasses()
				}
				sinkObject, sinkBool = tc.Resolve(objs[i%len(objs)])
			}
		})
	}
}
