package window_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// twinClusters is clusteredWorld's first n users twice over, as two
// clusters of identical members: whatever a member of the first holds, its
// twin in the second holds too, so no C_o set empties while the first
// cluster's tier runs.
func twinClusters(n int) ([]*pref.Profile, []core.Cluster, []object.Object) {
	users, clusters, objs := clusteredWorld(rand.New(rand.NewSource(11)), 1, n, 3, 7, 4096)
	twins := make([]int, n)
	for i := range twins {
		twins[i] = n + i
		users = append(users, users[i].Clone())
	}
	clusters = append(clusters, core.Cluster{Members: twins, Common: pref.Common(users[n:])})
	return users, clusters, objs
}

// TestMemberTierDoesNotAllocate: once the member table and the tier's
// scratch exist, the windowed member tier allocates nothing, on arrival
// and on departure. The arrivals are dominated under the cluster relation
// by a P_U entry, so every member rejects them and nothing changes. The
// departure is of a P_U entry that members hold and whose leaving
// promotes nothing, run and undone (re-admitted) in turn: with its twin
// users still holding it, no C_o set is released or made.
func TestMemberTierDoesNotAllocate(t *testing.T) {
	users, clusters, objs := twinClusters(8)
	eng := window.NewFilterThenVerifySW(users, clusters, 64, nil)
	for _, o := range objs[:512] {
		eng.Process(o)
	}
	fu := eng.ClusterFronts[0]
	var rejected []object.Object
	for _, o := range objs[512:] {
		var po pref.Probe
		clusters[0].Common.Prepare(o, &po)
		if slices.ContainsFunc(fu.Objects(), po.DominatedBy) {
			o.ID += 1 << 20 // never an id the window holds
			rejected = append(rejected, o)
		}
	}
	if len(rejected) == 0 {
		t.Fatal("no arrival is dominated under the cluster relation")
	}
	var co []int
	for _, o := range rejected {
		co = eng.AdmitToMembers(0, o, co[:0]) // warm the scratch
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		co = eng.AdmitToMembers(0, rejected[i%len(rejected)], co[:0])
		i++
	}); allocs != 0 || len(co) != 0 {
		t.Fatalf("the arrival tier allocates %.1f times and delivers to %v", allocs, co)
	}

	sizes := func() []int {
		var n []int
		for _, c := range clusters[0].Members {
			n = append(n, len(eng.UserFrontier(c)))
		}
		return n
	}
	var out object.Object
	for _, x := range fu.Objects() {
		before := sizes()
		held := len(eng.Targets(x.ID)) / 2
		fu.Remove(x.ID)
		eng.MendMembers(0, x, false)
		after := sizes()
		fu.Add(x)
		eng.AdmitToMembers(0, x, co[:0])
		if held >= 2 && slices.Equal(sizes(), before) && sumOf(before)-sumOf(after) == held {
			out = x
			break
		}
	}
	if out.Attrs == nil {
		t.Fatal("no P_U entry with two holders leaves without a promotion")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		fu.Remove(out.ID)
		eng.MendMembers(0, out, false)
		fu.Add(out)
		co = eng.AdmitToMembers(0, out, co[:0])
	}); allocs != 0 {
		t.Fatalf("a departure and its undoing allocate %.1f times", allocs)
	}
}

func sumOf(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// BenchmarkWindowMemberTier prices Alg. 5 on one movie-community cluster
// of 2, 8, 16, 32 and 160 members at W = 400 and 3 200: the whole
// Process of each arrival at a full window — filter tier, member tier,
// expiry and mend — over a stream drawn from a 2¹⁵-object catalogue. It
// reports the comparisons per arrival and, with -benchmem, B/op.
func BenchmarkWindowMemberTier(b *testing.B) {
	const n = 16384
	ds := datagen.Generate(datagen.Movie().Scaled(1<<15, 160))
	objs := make([]object.Object, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(ds.Objects))[:n] {
		objs[i] = object.Object{ID: i, Attrs: ds.Objects[k].Attrs}
	}
	for _, w := range []int{400, 3200} {
		for _, size := range []int{2, 8, 16, 32, 160} {
			users := ds.Users[:size]
			members := make([]int, size)
			for c := range members {
				members[c] = c
			}
			clusters := []core.Cluster{{Members: members, Common: pref.Common(users)}}
			b.Run(fmt.Sprintf("W=%d/members=%d", w, size), func(b *testing.B) {
				ctr := &stats.Counters{}
				eng := window.NewFilterThenVerifySW(users, clusters, w, ctr)
				next := 0
				process := func() {
					o := objs[next%n]
					o.ID = next
					next++
					eng.Process(o)
				}
				for next < w {
					process()
				}
				base := ctr.Comparisons
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					process()
				}
				b.ReportMetric(float64(ctr.Comparisons-base)/float64(b.N), "cmp/op")
			})
		}
	}
}
