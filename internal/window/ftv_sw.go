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
	users     []*pref.Profile
	clusters  []core.Cluster
	clusterFs []*core.Frontier // P_U
	buffers   []*buffer        // PB_U
	userFs    []*core.Frontier // P_c
	win       *ring
	targets   *targetTracker
	ctr       *stats.Counters
	scratch   core.ResultScratch

	// globalIdx / total map this instance's cluster subset into the
	// monitor's full cluster list; set only for shard instances, used by
	// state capture (see state.go).
	globalIdx []int
	total     int

	// commonFn recomputes a cluster's common relation when membership or
	// member preferences change online; nil means pref.Common (the exact
	// engines). The monitor wires approx.Profile for the approximate one.
	commonFn core.CommonFn

	// cands is mendMembers' arrival-ordered snapshot of P_U, reused across
	// departures.
	cands []object.Object
}

// NewFilterThenVerifySW creates the monitor with window size w. Clusters
// must partition the user set.
func NewFilterThenVerifySW(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	core.ValidatePartition(users, clusters)
	return newFTVSWShard(users, clusters, w, ctr)
}

// NewFilterThenVerifySWFor builds the engine without the full-partition
// check: removed users belong to no cluster and dormant clusters ride
// along as placeholders. Recovery of an evolved community uses it.
func NewFilterThenVerifySWFor(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	return newFTVSWShard(users, clusters, w, ctr)
}

// newFTVSWShard builds the engine over a subset of clusters without the
// partition check; ParallelFilterThenVerifySW builds one per worker with
// its own window ring. User frontiers exist only for the given
// clusters' members — the harness routes per-user calls to the owning
// shard, so other slots are never dereferenced (a full cluster set, as
// the sequential constructor passes, covers every user).
func newFTVSWShard(users []*pref.Profile, clusters []core.Cluster, w int, ctr *stats.Counters) *FilterThenVerifySW {
	f := &FilterThenVerifySW{
		users:     users,
		clusters:  clusters,
		clusterFs: make([]*core.Frontier, len(clusters)),
		buffers:   make([]*buffer, len(clusters)),
		userFs:    make([]*core.Frontier, len(users)),
		win:       newRing(w),
		targets:   newTargetTracker(),
		ctr:       ctr,
	}
	for i := range clusters {
		f.clusterFs[i] = core.NewFrontier()
		f.buffers[i] = newBuffer()
	}
	for _, cl := range clusters {
		for _, c := range cl.Members {
			f.userFs[c] = core.NewFrontier()
		}
	}
	return f
}

// Process ingests o_in, expiring the object leaving the window, and
// returns C_oin.
func (f *FilterThenVerifySW) Process(oin object.Object) []int {
	f.ctr.AddProcessed()
	if oout, ok := f.win.push(oin); ok && oout.ID >= 0 {
		for ui := range f.clusters {
			if len(f.clusters[ui].Members) == 0 {
				continue
			}
			f.expireCluster(ui, oout)
		}
		f.targets.drop(oout.ID)
	}
	co := f.scratch.Start()
	for ui := range f.clusters {
		if len(f.clusters[ui].Members) == 0 {
			continue
		}
		if f.arriveCluster(ui, oin) {
			for _, c := range f.clusters[ui].Members {
				if f.verifyUser(c, oin) {
					co = append(co, c)
				}
			}
		}
	}
	slices.Sort(co)
	f.ctr.AddDelivered(len(co))
	return f.scratch.Finish(co)
}

// EnableScratch switches Process to a reused result slice; only the
// sharded harness (which copies results out) enables it.
func (f *FilterThenVerifySW) EnableScratch() { f.scratch.Enable() }

// expireCluster handles o_out for one cluster: mend P_U from PB_U under
// ≻_U, then mend each member's P_c from the updated P_U under ≻_c (see
// the package comment for why the user tier needs its own dominance gate).
func (f *FilterThenVerifySW) expireCluster(ui int, oout object.Object) {
	pb := f.buffers[ui]
	if f.clusterFs[ui].Remove(oout.ID) {
		// Tier 1: promote buffered objects whose only ≻_U shield was o_out
		// (Procedure mendParetoFrontierUSW), in arrival order.
		var po pref.Probe
		f.clusters[ui].Common.Prepare(oout, &po)
		for _, o := range pb.objects() {
			if o.ID == oout.ID {
				continue
			}
			f.ctr.AddFilter(1)
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
//
//paretomon:hotpath
func (f *FilterThenVerifySW) mendMembers(ui int, out object.Object) {
	sorted := false
	for _, c := range f.clusters[ui].Members {
		fc := f.userFs[c]
		if !fc.Remove(out.ID) {
			continue
		}
		f.targets.remove(out.ID, c)
		if !sorted {
			f.cands = append(f.cands[:0], f.clusterFs[ui].Objects()...)
			slices.SortFunc(f.cands, byArrival)
			sorted = true
		}
		var po pref.Probe
		f.users[c].Prepare(out, &po)
		for _, o := range f.cands {
			if fc.Contains(o.ID) {
				continue
			}
			f.ctr.AddVerify(1)
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
	fu := f.clusterFs[ui]
	if fu.Contains(o.ID) {
		return
	}
	var po pref.Probe
	f.clusters[ui].Common.Prepare(o, &po)
	for i := 0; i < fu.Len(); i++ {
		f.ctr.AddFilter(1)
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
	fu := f.clusterFs[ui]
	var po pref.Probe
	f.users[c].Prepare(o, &po)
	for i := 0; i < fu.Len(); i++ {
		op := fu.At(i)
		if op.ID == o.ID {
			continue
		}
		f.ctr.AddVerify(1)
		if po.DominatedBy(op) {
			return
		}
	}
	f.userFs[c].Add(o)
	f.targets.add(o.ID, c)
}

// arriveCluster runs the filter tier for o_in (Procedure
// updateParetoFrontierUSW) and refreshes PB_U (Procedure
// refreshParetoBufferSW at cluster granularity). It returns whether o_in
// survives the filter.
func (f *FilterThenVerifySW) arriveCluster(ui int, oin object.Object) bool {
	cl := f.clusters[ui]
	fu := f.clusterFs[ui]
	var po pref.Probe
	cl.Common.Prepare(oin, &po)
	isPareto := true
scan:
	for i := 0; i < fu.Len(); {
		op := fu.At(i)
		f.ctr.AddFilter(1)
		switch po.Compare(op) {
		case pref.Left:
			fu.Remove(op.ID)
			for _, c := range cl.Members {
				if f.userFs[c].Remove(op.ID) {
					f.targets.remove(op.ID, c)
				}
			}
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
	f.ctr.AddFilter(pb.evictDominated(&po))
	pb.add(oin)
	return isPareto
}

// verifyUser runs the per-user tier for o_in against P_c.
func (f *FilterThenVerifySW) verifyUser(c int, oin object.Object) bool {
	fc := f.userFs[c]
	var po pref.Probe
	f.users[c].Prepare(oin, &po)
	isPareto := true
scan:
	for i := 0; i < fc.Len(); {
		op := fc.At(i)
		f.ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			fc.Remove(op.ID)
			f.targets.remove(op.ID, c)
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
		f.targets.add(oin.ID, c)
	}
	return isPareto
}

// UserFrontier returns P_c as object ids.
func (f *FilterThenVerifySW) UserFrontier(c int) []int { return f.userFs[c].IDs() }

// ClusterFrontier returns P_U of cluster ui as object ids.
func (f *FilterThenVerifySW) ClusterFrontier(ui int) []int { return f.clusterFs[ui].IDs() }

// Buffer returns PB_U of cluster ui as object ids in arrival order.
func (f *FilterThenVerifySW) Buffer(ui int) []int { return f.buffers[ui].idSlice() }

// Targets returns the current C_o of an alive object.
func (f *FilterThenVerifySW) Targets(objID int) []int { return f.targets.users(objID) }
