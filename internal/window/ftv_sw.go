package window

import (
	"cmp"
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
// FilterThenVerifyApproxSW.
type FilterThenVerifySW struct {
	core.ClusterShard
	buffers []*buffer // PB_U per maintained cluster
	win     *ring

	// cands is mendMembers' arrival-ordered snapshot of P_U, reused across
	// departures.
	cands []object.Object
}

// NewFilterThenVerifySW creates the standalone monitor with window size
// w. Clusters must partition the user set; the constructor panics
// otherwise.
func NewFilterThenVerifySW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	return newFilterThenVerifySW(core.AllClusters(users, clusters, ctr), w)
}

// newFilterThenVerifySW wraps one shard's bookkeeping into an engine with
// its own window ring and a shared buffer per maintained cluster.
func newFilterThenVerifySW(s core.ClusterShard, w int) *FilterThenVerifySW {
	f := &FilterThenVerifySW{ClusterShard: s, buffers: make([]*buffer, len(s.Clusters)), win: newRing(w)}
	for i := range f.buffers {
		f.buffers[i] = newBuffer()
	}
	return f
}

// NewSharded builds the sliding-window engine for a community, window
// size w: Alg. 4 shards when clusters is nil, Alg. 5 shards otherwise,
// under the same contract as core.NewSharded. Each shard owns a disjoint
// slice of the user set plus its own window ring and Pareto frontier
// buffers, so arrival, expiry and mending all stay local to the shard:
// every shard sees every object and ages it through an identical private
// ring, which makes per-shard expiry equivalent to a single ring.
func NewSharded(users []*pref.Profile, clusters []core.Cluster, active []bool, w, workers int, ctr *stats.Counters) (*core.Sharded, error) {
	if clusters == nil {
		return core.ShardUsers(users, active, workers, ctr,
			func(s core.UserShard) core.ShardEngine { return newBaselineSW(s, w) }), nil
	}
	return core.ShardClusters(users, clusters, active, workers, ctr,
		func(s core.ClusterShard) core.ShardEngine { return newFilterThenVerifySW(s, w) })
}

// Process ingests o_in, expiring the object leaving the window, and
// returns C_oin.
func (f *FilterThenVerifySW) Process(oin object.Object) []int {
	f.Ctr.AddProcessed()
	if oout, ok := f.win.push(oin); ok && oout.ID >= 0 {
		for ui := range f.Clusters {
			if len(f.Clusters[ui].Members) == 0 {
				continue
			}
			f.expireCluster(ui, oout)
		}
		f.DropTargets(oout.ID)
	}
	co := f.Scratch.Start()
	for ui := range f.Clusters {
		if len(f.Clusters[ui].Members) == 0 {
			continue
		}
		if f.arriveCluster(ui, oin) {
			for _, c := range f.Clusters[ui].Members {
				if f.verifyUser(c, oin) {
					co = append(co, c)
				}
			}
		}
	}
	slices.Sort(co)
	f.Ctr.AddDelivered(len(co))
	return f.Scratch.Finish(co)
}

// expireCluster handles o_out for one cluster: mend P_U from PB_U under
// ≻_U, then mend each member's P_c from the updated P_U under ≻_c (see
// the package comment for why the user tier needs its own dominance gate).
func (f *FilterThenVerifySW) expireCluster(ui int, oout object.Object) {
	pb := f.buffers[ui]
	if f.ClusterFronts[ui].Remove(oout.ID) {
		// Tier 1: promote buffered objects whose only ≻_U shield was o_out
		// (Procedure mendParetoFrontierUSW), in arrival order.
		var po pref.Probe
		f.Clusters[ui].Common.Prepare(oout, &po)
		for _, o := range pb.objects() {
			if o.ID == oout.ID {
				continue
			}
			f.Ctr.AddFilter(1)
			if po.Dominates(o) {
				f.mendCluster(ui, o)
			}
		}
	}
	pb.remove(oout.ID)
	f.mendMembers(ui, oout)
}

// mendMembers is tier 2 of an object's departure, by expiry or removal:
// out leaves every member frontier holding it, and each such member
// promotes the P_U objects whose only ≻_c shield was out (Procedure
// mendParetoFrontierSW). Members whose P_c did not hold out are skipped:
// any object it dominated per c is still dominated by out's own
// dominator. P_U is walked in arrival order (deterministic; the Lemma 4.6
// scan in mendUser makes the order immaterial for correctness), sorted
// once per departure into engine-owned scratch — tier 2 never changes P_U.
// Both membership questions — which members hold out, which candidates c
// already holds — are read off C_o (core.TargetTracker.Holds), a bit test
// where the frontier's index would be a probe.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) mendMembers(ui int, out object.Object) {
	sorted := false
	for _, c := range f.Clusters[ui].Members {
		if !f.Holds(out.ID, c) {
			continue
		}
		f.UserFronts[c].Remove(out.ID)
		f.RemoveTarget(out.ID, c)
		if !sorted {
			f.cands = append(f.cands[:0], f.ClusterFronts[ui].Objects()...)
			slices.SortFunc(f.cands, byArrival)
			sorted = true
		}
		var po pref.Probe
		f.Users[c].Prepare(out, &po)
		for _, o := range f.cands {
			if f.Holds(o.ID, c) {
				continue // already in P_c
			}
			f.Ctr.AddVerify(1)
			if po.Dominates(o) {
				f.mendUser(ui, c, o)
			}
		}
	}
}

// byArrival orders objects by id, which the stream assigns in arrival
// order.
func byArrival(a, b object.Object) int { return cmp.Compare(a.ID, b.ID) }

// mendCluster admits o into P_U unless a member dominates it under ≻_U.
func (f *FilterThenVerifySW) mendCluster(ui int, o object.Object) {
	fu := f.ClusterFronts[ui]
	if fu.Contains(o.ID) {
		return
	}
	var po pref.Probe
	f.Clusters[ui].Common.Prepare(o, &po)
	for i := 0; i < fu.Len(); i++ {
		f.Ctr.AddFilter(1)
		if po.DominatedBy(fu.At(i)) {
			return
		}
	}
	fu.Add(o)
}

// mendUser admits o into P_c by the criterion of Lemma 4.6: no P_U member
// may dominate it under ≻_c. Scanning P_c alone would be wrong here —
// o's per-user dominator may itself be a pending mend candidate (it was
// suppressed in P_c by the same expiring object), and P_U candidates are
// not ordered so that dominators precede dominatees the way PB candidates
// are.
func (f *FilterThenVerifySW) mendUser(ui, c int, o object.Object) {
	fu := f.ClusterFronts[ui]
	var po pref.Probe
	f.Users[c].Prepare(o, &po)
	for i := 0; i < fu.Len(); i++ {
		op := fu.At(i)
		if op.ID == o.ID {
			continue
		}
		f.Ctr.AddVerify(1)
		if po.DominatedBy(op) {
			return
		}
	}
	f.UserFronts[c].Add(o)
	f.AddTarget(o.ID, c)
}

// arriveCluster runs the filter tier for o_in (Procedure
// updateParetoFrontierUSW) and refreshes PB_U (Procedure
// refreshParetoBufferSW at cluster granularity). It returns whether o_in
// survives the filter.
func (f *FilterThenVerifySW) arriveCluster(ui int, oin object.Object) bool {
	cl := f.Clusters[ui]
	fu := f.ClusterFronts[ui]
	var po pref.Probe
	cl.Common.Prepare(oin, &po)
	isPareto := true
scan:
	for i := 0; i < fu.Len(); {
		op := fu.At(i)
		f.Ctr.AddFilter(1)
		switch po.Compare(op) {
		case pref.Left:
			fu.Remove(op.ID)
			f.EvictFromMembers(ui, op.ID)
		case pref.Right:
			isPareto = false
			break scan
		case pref.Identical:
			// Identical twin already in P_U: o_in is Pareto and cannot
			// dominate anything the twin has not already removed.
			break scan
		default:
			i++
		}
	}
	if isPareto {
		fu.Add(oin)
	}
	pb := f.buffers[ui]
	f.Ctr.AddFilter(pb.evictDominated(&po))
	pb.add(oin)
	return isPareto
}

// verifyUser runs the per-user tier for o_in against P_c.
func (f *FilterThenVerifySW) verifyUser(c int, oin object.Object) bool {
	fc := f.UserFronts[c]
	var po pref.Probe
	f.Users[c].Prepare(oin, &po)
	isPareto := true
scan:
	for i := 0; i < fc.Len(); {
		op := fc.At(i)
		f.Ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			fc.Remove(op.ID)
			f.RemoveTarget(op.ID, c)
		case pref.Right:
			isPareto = false
			break scan
		case pref.Identical:
			break scan
		default:
			i++
		}
	}
	if isPareto {
		fc.Add(oin)
		f.AddTarget(oin.ID, c)
	}
	return isPareto
}

// Buffer returns PB_U of cluster ui as object ids in arrival order.
func (f *FilterThenVerifySW) Buffer(ui int) []int { return f.buffers[ui].idSlice() }
