package window

import (
	"slices"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// FilterThenVerifySW is Alg. 5: sliding-window monitoring with shared
// computation. Each cluster keeps one filter frontier P_U and one shared
// Pareto frontier buffer PB_U (Theorem 7.5: PB_U ⊇ PB_c for every member,
// so per-user buffers are unnecessary); each user keeps only P_c ⊆ P_U.
// With approximate common preference relations the same engine is
// FilterThenVerifyApproxSW. Over clusters of their own (NewBaselineSW) it
// is Alg. 4: PB_U is the user's PB_c and P_U the user's P_c, and the
// member tier has nothing left to do.
type FilterThenVerifySW struct {
	core.ClusterShard
	buffers []*buffer // PB_U per maintained cluster
	unions  []union   // ∪≻_c per maintained cluster: the member tier's screen
	win     *ring

	// moved is the scratch frontier changes are reported into: the P_U
	// members an arrival evicted, the entries an expiry promoted into P_U,
	// the P_U members a departure promoted into one member's P_c.
	moved []object.Object

	// Scratch of the screened member tier (screen.go), as positions in
	// P_U, which the member tier never changes: near holds what the last
	// screen passed, lemma one departure's Lemma 4.6 lists.
	near  []int32
	lemma []lemmaList
}

// NewFilterThenVerifySW creates the standalone monitor with window size
// w. Clusters must partition the user set; the constructor panics
// otherwise.
func NewFilterThenVerifySW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	return newFilterThenVerifySW(core.AllClusters(users, clusters, ctr), w)
}

// NewBaselineSW creates the standalone Alg. 4 monitor with window size w:
// per-user frontiers and Pareto frontier buffers, every user a cluster of
// its own.
func NewBaselineSW(users []*pref.Profile, w int, ctr *stats.Counters) *FilterThenVerifySW {
	return NewFilterThenVerifySW(users, nil, w, ctr)
}

// newFilterThenVerifySW wraps one shard's bookkeeping into an engine with
// its own window ring and a shared buffer per maintained cluster.
func newFilterThenVerifySW(s core.ClusterShard, w int) *FilterThenVerifySW {
	f := &FilterThenVerifySW{ClusterShard: s, buffers: make([]*buffer, len(s.Clusters)), unions: make([]union, len(s.Clusters)), win: newRing(w)}
	for i := range f.buffers {
		f.buffers[i] = newBuffer()
	}
	return f
}

// NewSharded builds the sliding-window engine for a community, window
// size w: Alg. 5 shards, or Alg. 4 shards when clusters is nil, under the
// same contract as core.NewSharded. Each shard owns a disjoint slice of
// the user set plus its own window ring and Pareto frontier buffers, so
// arrival, expiry and mending all stay local to the shard: every shard
// sees every object and ages it through an identical private ring, which
// makes per-shard expiry equivalent to a single ring.
func NewSharded(users []*pref.Profile, clusters []core.Cluster, active []bool, w, workers int, ctr *stats.Counters) (*core.Sharded, error) {
	return core.ShardClusters(users, clusters, active, workers, ctr,
		func(s core.ClusterShard) core.ShardEngine { return newFilterThenVerifySW(s, w) })
}

// Process ingests o_in, expiring the object leaving the window, and
// returns C_oin.
func (f *FilterThenVerifySW) Process(oin object.Object) []int {
	f.Ctr.AddProcessed()
	if oout, ok := f.win.push(oin); ok {
		if oout.ID >= 0 {
			for ui := range f.Clusters {
				if len(f.Clusters[ui].Members) == 0 {
					continue
				}
				f.expireCluster(ui, oout)
			}
		}
		f.Expire(expiredID(oout))
	}
	co := f.Scratch.Start()
	for ui := range f.Clusters {
		members := f.Clusters[ui].Members
		switch {
		case len(members) == 0 || !f.arriveCluster(ui, oin):
		case f.Own(ui):
			f.AddTarget(oin.ID, members[0])
			co = append(co, members[0])
		default:
			co = f.verifyMembers(ui, oin, co)
		}
	}
	slices.Sort(co)
	f.Ctr.AddDelivered(len(co))
	return f.Scratch.Finish(co)
}

// expireCluster handles o_out for one cluster: it leaves PB_U and P_U, the
// buffered objects it was the last alive ≻_U-dominator of enter P_U
// (Procedure mendParetoFrontierUSW, decided by their shields), and each
// member's P_c is mended from the updated P_U under ≻_c (see the package
// comment for why the user tier needs its own dominance gate). An o_out
// outside P_U is in no member's P_c either. On a cluster of its own P_U
// is P_c, and only C_o follows (Alg. 4's mendParetoFrontierSW).
//
//paretomon:hotpath
func (f *FilterThenVerifySW) expireCluster(ui int, oout object.Object) {
	var held bool
	held, f.moved = f.buffers[ui].expire(oout.ID, f.moved[:0])
	if !held {
		return
	}
	fu := f.ClusterFronts[ui]
	fu.Remove(oout.ID)
	for _, o := range f.moved {
		fu.Add(o)
	}
	if !f.Own(ui) {
		f.mendMembers(ui, oout)
		return
	}
	c := f.Clusters[ui].Members[0]
	f.RemoveTarget(oout.ID, c)
	for _, o := range f.moved {
		f.AddTarget(o.ID, c)
	}
}

// mendMembers is tier 2 of an object's departure, by expiry or removal:
// out leaves every member frontier holding it, and each such member
// promotes the P_U objects whose only ≻_c shield was out (Procedure
// mendParetoFrontierSW). Members whose P_c did not hold out are skipped:
// any object it dominated per c is still dominated by out's own
// dominator. P_U is walked in place — tier 2 never changes it, and the
// Lemma 4.6 scan makes the order immaterial — and only what a member
// promotes (rarely more than two objects) is put in arrival order before
// it enters P_c. Both membership questions — which members
// hold out, which candidates c already holds — are read off C_o
// (core.TargetTracker.Holds), a bit test where the frontier's index would
// be a probe. A lone holder tests a candidate by the shared Lemma 4.6
// scan (core.ClusterShard.Undominated). When two or more members hold
// out, one screened pass (screenDeparture) first narrows P_U to the
// entries out could dominate for some member, every holder walks only
// those, and the holders share one screened Lemma 4.6 scan per candidate
// (undominatedNear).
//
//paretomon:hotpath
func (f *FilterThenVerifySW) mendMembers(ui int, out object.Object) {
	fu := f.ClusterFronts[ui]
	screened := f.holders(ui, out.ID) >= 2
	if screened {
		f.screenDeparture(ui, out)
	}
	for _, c := range f.Clusters[ui].Members {
		if !f.Holds(out.ID, c) {
			continue
		}
		fc := f.UserFronts[c]
		fc.Remove(out.ID)
		f.RemoveTarget(out.ID, c)
		var po pref.Probe
		f.Users[c].Prepare(out, &po)
		f.moved = f.moved[:0]
		n := fu.Len()
		if screened {
			n = len(f.near)
		}
		for k := 0; k < n; k++ {
			i := k
			if screened {
				i = int(f.near[k])
			}
			o := fu.At(i)
			if f.Holds(o.ID, c) {
				continue // already in P_c
			}
			f.Ctr.AddVerify(1)
			if !po.Dominates(o) {
				continue
			}
			var free bool
			if screened {
				free = f.undominatedNear(ui, c, o, k)
			} else {
				free = f.Undominated(ui, c, o)
			}
			if free {
				f.moved = append(f.moved, o)
			}
		}
		slices.SortFunc(f.moved, byArrival)
		for _, o := range f.moved {
			fc.Add(o)
			f.AddTarget(o.ID, c)
		}
	}
}

// byArrival orders objects by id, which the stream assigns in arrival
// order.
func byArrival(a, b object.Object) int { return compareID(a, b.ID) }

// arriveCluster runs the filter tier for o_in: one walk of PB_U decides
// whether o_in survives the filter, evicts the buffered objects it
// dominates — from P_U and the member frontiers too where they were
// members — and admits o_in to the buffer (Procedures
// updateParetoFrontierUSW and refreshParetoBufferSW at cluster
// granularity). It returns whether o_in survives the filter. On a cluster
// of its own the walk is Alg. 4's, counted as verify work, and surviving
// it is joining P_c.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) arriveCluster(ui int, oin object.Object) bool {
	var po pref.Probe
	f.Clusters[ui].Common.Prepare(oin, &po)
	var shield, cmps int
	shield, cmps, f.moved = f.buffers[ui].arrive(&po, oin, f.moved[:0])
	f.CountTier(ui, cmps)
	fu := f.ClusterFronts[ui]
	for _, o := range f.moved {
		fu.Remove(o.ID)
		f.EvictFromMembers(ui, o.ID)
	}
	if shield != noShield {
		return false
	}
	fu.Add(oin)
	return true
}

// Buffer returns PB_U of cluster ui as object ids in arrival order.
func (f *FilterThenVerifySW) Buffer(ui int) []int { return f.buffers[ui].idSlice() }
