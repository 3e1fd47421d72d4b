package window

import (
	"fmt"
	"iter"
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
	w       int       // the window size W
	next    int       // the id the next arrival takes: the stream position

	// exact says the cluster relations are subsumed by their members'
	// (≻_U ⊆ ≻_c), so every P_c is the frontier the attribute values
	// determine and an arrival whose twin is in P_U joins exactly the
	// frontiers holding the twin (core.ClusterShard.AdmitTwin). Under the
	// approximate relations P̂_c is what the procedure leaves, and a twin
	// can sit outside it unjustly: such an arrival scans.
	exact bool

	// moved is the scratch frontier changes are reported into: the P_U
	// members an arrival evicted, the entries an expiry promoted into P_U.
	moved []object.Object
}

// NewFilterThenVerifySW creates the standalone exact monitor with window
// size w. Clusters must partition the user set, and every cluster
// relation must be subsumed by its members' (≻_U ⊆ ≻_c: the exact
// intersection of Def. 4.1 or any subset of it); the constructor panics
// otherwise. Clusters with approximate relations go through
// NewFilterThenVerifyApproxSW. Object ids must be arrival indices, 0, 1,
// 2, …: the arrival of id n retires id n − w. Like the standalone
// append-only engines it has no alive-object source, and serves Process
// only: a lifecycle call panics.
func NewFilterThenVerifySW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	s := core.AllClusters(users, clusters, nil, ctr)
	if err := core.CheckSubsumed(users, clusters); err != nil {
		panic(err.Error())
	}
	return newFilterThenVerifySW(s, w, true)
}

// NewFilterThenVerifyApproxSW creates the standalone monitor with window
// size w over clusters with approximate common relations (Sec. 6.2):
// FilterThenVerifyApproxSW, under NewFilterThenVerifySW's contract
// except that a cluster relation may order what a member's does not.
func NewFilterThenVerifyApproxSW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	return newFilterThenVerifySW(core.AllClusters(users, clusters, nil, ctr), w, false)
}

// NewBaselineSW creates the standalone Alg. 4 monitor with window size w:
// per-user frontiers and Pareto frontier buffers, every user a cluster of
// its own.
func NewBaselineSW(users []*pref.Profile, w int, ctr *stats.Counters) *FilterThenVerifySW {
	return NewFilterThenVerifySW(users, nil, w, ctr)
}

// newFilterThenVerifySW wraps one shard's bookkeeping into an engine with
// window size w and a shared buffer per maintained cluster, of the exact
// family or the approximate one.
func newFilterThenVerifySW(s core.ClusterShard, w int, exact bool) *FilterThenVerifySW {
	if w <= 0 {
		panic(fmt.Sprintf("window: window size must be positive, got %d", w))
	}
	s.KeepHolders()
	s.Reserve(w) // the window's alive objects, the most a lifecycle call reads
	f := &FilterThenVerifySW{ClusterShard: s, buffers: make([]*buffer, len(s.Clusters)), w: w, exact: exact}
	for i := range f.buffers {
		f.buffers[i] = newBuffer()
	}
	return f
}

// NewSharded builds the sliding-window engine for a community, window
// size w: Alg. 5 shards, or Alg. 4 shards when clusters is nil, under the
// same contract as core.NewSharded. exact says which family the cluster
// relations are, and must stay through every recompute: the exact
// intersection (FilterThenVerifySW) or the approximate relations
// (FilterThenVerifyApproxSW). alive yields the objects in the window that
// were not removed, in arrival order, on every call: the owner's
// registry, one window for every shard, which the lifecycle calls read
// their candidates from. Each shard owns a disjoint slice of the user set
// plus its Pareto frontier buffers, so arrival, expiry and mending all
// stay local to the shard: every shard sees every object, and the arrival
// of id n retires id n − w in each.
func NewSharded(users []*pref.Profile, clusters []core.Cluster, active []bool, alive iter.Seq[object.Object], w, workers int, exact bool, ctr *stats.Counters) (*core.Sharded, error) {
	return core.ShardClusters(users, clusters, active, alive, workers, ctr,
		func(s core.ClusterShard) core.ShardEngine { return newFilterThenVerifySW(s, w, exact) })
}

// Process ingests o_in, expiring the object leaving the window — id
// o_in − W — and returns C_oin.
func (f *FilterThenVerifySW) Process(oin object.Object) []int {
	f.Ctr.AddProcessed()
	f.next = oin.ID + 1
	if out := oin.ID - f.w; out >= 0 {
		for ui := range f.Clusters {
			if len(f.Clusters[ui].Members) == 0 {
				continue
			}
			f.expireCluster(ui, out)
		}
		f.Expire(out)
	}
	co := f.Scratch.Start()
	for ui := range f.Clusters {
		members := f.Clusters[ui].Members
		if len(members) == 0 {
			continue
		}
		switch in, twin := f.arriveCluster(ui, oin); {
		case !in:
		case f.Own(ui):
			f.AddTarget(oin.ID, members[0])
			co = append(co, members[0])
		case twin != noTwin && f.exact:
			co = f.AdmitTwin(ui, oin, twin, co)
		default:
			co = f.AdmitToMembers(ui, oin, co)
		}
	}
	slices.Sort(co)
	f.Ctr.AddDelivered(len(co))
	return f.Scratch.Finish(co)
}

// expireCluster handles o_out, the object with id out, for one cluster:
// it leaves PB_U and P_U, the buffered objects it was the last alive
// ≻_U-dominator of enter P_U (Procedure mendParetoFrontierUSW, decided by
// their shields), and the members mend from the updated P_U
// (core.ClusterShard.MendMembers, under ≻_c: see the package comment) —
// unless a younger twin of o_out stays in P_U, which keeps out whatever
// o_out did. An o_out outside PB_U — dominated by a younger object, or
// removed — is in no frontier. On a cluster of its own P_U is P_c, and
// only C_o follows.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) expireCluster(ui, out int) {
	pb := f.buffers[ui]
	oout, held := pb.expiring(out)
	if !held {
		return
	}
	var twin bool
	f.moved, twin = pb.expire(f.moved[:0])
	fu := f.ClusterFronts[ui]
	fu.Remove(oout.ID)
	for _, o := range f.moved {
		fu.Add(o)
	}
	if !f.Own(ui) {
		f.MendMembers(ui, oout, twin)
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
// granularity). It returns whether o_in survives the filter, and the id
// of the twin that ended the walk (noTwin if none did): if o_in survives,
// a twin in P_U. On a cluster of its own the walk is Alg. 4's, counted as
// verify work, and surviving it is joining P_c.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) arriveCluster(ui int, oin object.Object) (in bool, twin int) {
	var po pref.Probe
	f.Clusters[ui].Common.Prepare(oin, &po)
	var shield, cmps int
	shield, twin, cmps, f.moved = f.buffers[ui].arrive(&po, oin, f.moved[:0])
	f.CountTier(ui, cmps)
	fu := f.ClusterFronts[ui]
	for _, o := range f.moved {
		fu.Remove(o.ID)
		f.EvictFromMembers(ui, o.ID)
	}
	if shield != noShield {
		return false, twin
	}
	fu.Add(oin)
	return true, twin
}

// Buffer returns PB_U of cluster ui as object ids in arrival order.
func (f *FilterThenVerifySW) Buffer(ui int) []int { return f.buffers[ui].idSlice() }
