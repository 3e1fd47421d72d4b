package window_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// clusteredWorld builds nClusters clusters of perCluster users whose
// members share a base relation and differ by a few extra tuples, so a
// cluster's members tend to hold the same objects in their frontiers —
// the shape under which one departing object sends several members of a
// cluster through tier 2 of the mend at once.
func clusteredWorld(r *rand.Rand, nClusters, perCluster, dims, domSize, nObjs int) ([]*pref.Profile, []core.Cluster, []object.Object) {
	doms := make([]*order.Domain, dims)
	for d := range doms {
		doms[d] = order.NewDomain(string(rune('a' + d)))
		for v := 0; v < domSize; v++ {
			doms[d].Intern(fmt.Sprintf("v%d", v))
		}
	}
	var users []*pref.Profile
	var clusters []core.Cluster
	for g := 0; g < nClusters; g++ {
		base := pref.NewProfile(doms)
		for d := 0; d < dims; d++ {
			for e := 0; e < domSize; e++ {
				base.Relation(d).Add(r.Intn(domSize), r.Intn(domSize))
			}
		}
		var members []int
		var profs []*pref.Profile
		for m := 0; m < perCluster; m++ {
			p := base.Clone()
			for d := 0; d < dims; d++ {
				p.Relation(d).Add(r.Intn(domSize), r.Intn(domSize))
			}
			members = append(members, len(users))
			users = append(users, p)
			profs = append(profs, p)
		}
		clusters = append(clusters, core.Cluster{Members: members, Common: pref.Common(profs)})
	}
	objs := make([]object.Object, nObjs)
	for i := range objs {
		attrs := make([]int32, dims)
		for d := range attrs {
			attrs[d] = int32(r.Intn(domSize))
		}
		objs[i] = object.Object{ID: i, Attrs: attrs}
	}
	return users, clusters, objs
}

// holders counts, per cluster, the members whose frontier holds id, and
// returns the largest count.
func holders(eng interface{ UserFrontier(c int) []int }, clusters []core.Cluster, id int) int {
	most := 0
	for _, cl := range clusters {
		n := 0
		for _, c := range cl.Members {
			for _, fid := range eng.UserFrontier(c) {
				if fid == id {
					n++
				}
			}
		}
		if n > most {
			most = n
		}
	}
	return most
}

// Departures that send two or more members of one cluster through the
// member-tier mend, by expiry and by RemoveObject, leave exactly the
// state the engine left before the mend shared one arrival-ordered P_U
// snapshot per cluster: frontiers in scan order (it decides where later
// scans stop), C_o of every object, deliveries, and the filter/verify
// comparison counts. The expiry and removal counts and the deliveries are
// pinned from the commit before that change; the filter and verify counts
// and the digest were re-recorded, in a commit touching nothing else, when
// the buffers got shields — the cluster tier stopped scanning (filter
// 72 722 → 25 019), and P_U's scan order, which the member tier's early
// exits and the digest follow, became the order the buffer walk evicts and
// the shields promote in (verify 63 815 → 63 648). They were re-recorded
// once more when the member tier got its union screen: the verify count
// falls (63 648 → 39 977, screen probes included), and a member now meets
// its frontier's entries in P_U's order, so it evicts them in another
// order and P_c's scan order — the digest — moves with it. The
// deliveries, expiry and removal counts and the filter count stand. The
// verify count was re-recorded once more, alone, when the member tier
// came to run for all members at once over the member table: one probe
// per P_U entry for every member at once replaces the screen and the
// per-member comparisons (39 977 → 26 274); the digest stands. Once more,
// alone, when the member tier took its twin shortcut: an arrival with a
// twin in P_U joins the frontiers holding the twin, and a departure that
// leaves one there mends nobody, with no comparison (26 274 → 23 954);
// the digest stands.
func TestMultiHolderDepartureMatchesPinnedState(t *testing.T) {
	const w = 48
	r := rand.New(rand.NewSource(20180326))
	users, clusters, objs := clusteredWorld(r, 3, 4, 3, 7, 400)
	ctr := &stats.Counters{}
	eng := window.NewSourcedFilterThenVerifySW(users, clusters, w, ctr)

	digest := fnv.New64a()
	record := func(tag string, vs []int) { fmt.Fprintf(digest, "%s%v;", tag, vs) }
	snapshot := func() {
		for c := range users {
			record("P", eng.UserFrontier(c)) // raw scan order
		}
	}

	multiExpiries, multiRemovals := 0, 0
	removed := map[int]bool{}
	for i, o := range objs {
		if i >= w && !removed[i-w] && holders(eng, clusters, i-w) >= 2 {
			multiExpiries++
		}
		record("C", eng.Process(o))
		snapshot()
		if i%25 == 24 {
			// Remove the youngest in-window object that two members of
			// one cluster hold.
			for id := i; id > i-w && id >= 0; id-- {
				if holders(eng, clusters, id) >= 2 {
					multiRemovals++
					removed[id] = true
					eng.RemoveObject(objs[id])
					if got := eng.Targets(id); got != nil {
						t.Fatalf("Targets(%d) after removal = %v, want nil", id, got)
					}
					snapshot()
					break
				}
			}
		}
	}
	for id := range objs {
		record("T", eng.Targets(id))
	}

	if multiExpiries == 0 || multiRemovals == 0 {
		t.Fatalf("scenario exercises %d multi-holder expiries and %d multi-holder removals; want both > 0",
			multiExpiries, multiRemovals)
	}
	const (
		wantMultiExpiries = 267
		wantMultiRemovals = 16
		wantFilter        = 25019
		wantVerify        = 23954
		wantDelivered     = 2139
		wantDigest        = 0x7afb143ec8dcc0e6
	)
	got := []uint64{uint64(multiExpiries), uint64(multiRemovals),
		ctr.FilterComparisons, ctr.VerifyComparisons, ctr.Delivered, digest.Sum64()}
	want := []uint64{wantMultiExpiries, wantMultiRemovals, wantFilter, wantVerify, wantDelivered, wantDigest}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expiries, removals, filter, verify, delivered, digest =\n  %d %d %d %d %d %#x\nwant\n  %d %d %d %d %d %#x",
			got[0], got[1], got[2], got[3], got[4], got[5], want[0], want[1], want[2], want[3], want[4], want[5])
	}

	// The pinned run ends in the state the definition prescribes.
	alive := slices.DeleteFunc(slices.Clone(objs[len(objs)-w:]), func(o object.Object) bool { return removed[o.ID] })
	for c, u := range users {
		if got, want := fixtures.Sorted(eng.UserFrontier(c)), fixtures.Frontier(fixtures.Asserted(u), alive); !reflect.DeepEqual(got, want) {
			t.Errorf("user %d: frontier %v, reference %v", c, got, want)
		}
	}
}

// At a full window every arrival also expires an object and mends. The
// expiry path itself allocates nothing: what remains per Process is the
// C_o bitset of an object entering its first frontier (two allocations)
// and the amortized growth of the id-indexed target table. The frontier
// index deletes by backward shift, so a frontier at its steady size never
// rehashes, and a buffer is just its entries and their shields.
func TestExpiryPathDoesNotAllocate(t *testing.T) {
	const w = 64
	r := rand.New(rand.NewSource(5))
	users, clusters, objs := clusteredWorld(r, 3, 4, 3, 7, 4096)
	eng := window.NewFilterThenVerifySW(users, clusters, w, nil)
	eng.EnableScratch() // reuse the result slice, as the sharded harness does
	next := 0
	process := func() {
		o := objs[next%len(objs)]
		o.ID = next
		next++
		eng.Process(o)
	}
	for next < 8*w {
		process()
	}
	if got := testing.AllocsPerRun(2000, process); got > 2 {
		t.Errorf("Process at a full window: %.0f allocs/op, want <= 2", got)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A windowed engine's state is its frontiers and buffers — both bounded
// by the window — so its live heap must not follow the stream:
// what an arrival may leave behind for good is its 8 B slot in the C_o
// table. (With an id-indexed position array per frontier and an
// id-indexed bitset per buffer this run kept 315–345 B per arrival:
// 4 B × 64 users, and the arrays' append slack on top.)
func TestLiveHeapIgnoresStreamLength(t *testing.T) {
	const w, early, late, perArrival = 64, 4096, 16384, 32
	r := rand.New(rand.NewSource(9))
	users, clusters, objs := clusteredWorld(r, 8, 8, 3, 7, early)
	engines := map[string]core.Monitor{
		"BaselineSW":         window.NewBaselineSW(users, w, nil),
		"FilterThenVerifySW": window.NewFilterThenVerifySW(users, clusters, w, nil),
	}
	for name, eng := range engines {
		feed := func(from, to int) {
			for id := from; id < to; id++ {
				o := objs[id%len(objs)]
				o.ID = id
				eng.Process(o)
			}
		}
		feed(0, early)
		before := liveHeap()
		feed(early, late)
		after := liveHeap()
		runtime.KeepAlive(eng)
		if grown := int64(after) - int64(before); grown > perArrival*(late-early) {
			t.Errorf("%s at W=%d: live heap grew %d B over arrivals %d..%d (%.0f B each), want <= %d B each",
				name, w, grown, early, late, float64(grown)/(late-early), perArrival)
		}
	}
}
