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
	win     *ring

	// moved is the scratch frontier changes are reported into: the P_U
	// members an arrival evicted, the entries an expiry promoted into P_U.
	moved []object.Object
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
	s.KeepHolders()
	f := &FilterThenVerifySW{ClusterShard: s, buffers: make([]*buffer, len(s.Clusters)), win: newRing(w)}
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
			co = f.AdmitToMembers(ui, oin, co)
		}
	}
	slices.Sort(co)
	f.Ctr.AddDelivered(len(co))
	return f.Scratch.Finish(co)
}

// expireCluster handles o_out for one cluster: it leaves PB_U and P_U, the
// buffered objects it was the last alive ≻_U-dominator of enter P_U
// (Procedure mendParetoFrontierUSW, decided by their shields), and the
// members mend from the updated P_U (core.ClusterShard.MendMembers, under
// ≻_c: see the package comment). An o_out outside P_U is in no P_c
// either. On a cluster of its own P_U is P_c, and only C_o follows.
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
		f.MendMembers(ui, oout)
		return
	}
	c := f.Clusters[ui].Members[0]
	f.RemoveTarget(oout.ID, c)
	for _, o := range f.moved {
		f.AddTarget(o.ID, c)
	}
}

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
