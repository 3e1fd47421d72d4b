package core

import (
	"repro/internal/object"
	"repro/internal/pref"
)

// Lifecycle operations on the append-only engines: the community and the
// object set become mutable after construction. Each operation mirrors a
// public Monitor call and carries only what changed — a user slot, a
// cluster index, a preference tuple, an object. Validation and WAL
// logging happen above; the engine finds the rest itself: it recomputes
// every cluster relation a call touches (ClusterShard.CommonOf), and it
// reads the alive objects from the source it was built with (NewSharded's
// alive argument, the owner's registry), in arrival order.
//
// The central mechanism is frontier *mending* — the inverse of the
// arrival scan. Retracting a preference tuple or deleting an object
// removes dominance pairs, so objects the frontier previously rejected
// can become Pareto-optimal again. The windowed engines mend on expiry
// (Alg. 4/5's mendParetoFrontierSW) from their Pareto frontier buffers;
// here the alive objects are the candidate source, as they are for every
// lifecycle call of the windowed engines.
//
// Correctness of mendFrontier's candidate check: a candidate x enters
// the new frontier iff no alive object dominates it. It suffices to test
// x against the surviving frontier members and the other candidates: any
// alive dominator z outside both is itself dominated by a frontier
// member w (append-only invariant: every non-frontier alive object has a
// frontier dominator, transitively), and w — which survives, since
// frontiers only grow under retraction/removal mends — dominates x
// transitively.
//
// In the exact engines all of this runs on tuple classes: frontier
// members and candidates are class representatives (Collapse reduces the
// alive objects to one per class), which is the same argument on the
// quotient set — identical tuples never dominate each other and dominate
// everything else alike.
//
// The filter-then-verify engines share the orchestration with the
// windowed ones (ClusterShard's JoinCluster, LeaveCluster, RetractTuple)
// and differ only in the Resync hook that repairs P_U: here it scans the
// alive objects for a founded cluster and otherwise runs the
// direction-aware resyncCluster. Alg. 1's own candidate sources are its
// arms for a cluster of its own: a join replays the alive objects, a
// retraction mends from every alive object outside P_c, and a removal
// from the alive objects the removed one dominated.

// CommonFn recomputes a cluster's common preference relation from its
// member profiles. The exact engines use pref.Common (Def. 4.1); the
// approximate engine substitutes approx.Profile so cluster relations
// stay in the approximate regime across membership and preference
// changes.
type CommonFn func(members []*pref.Profile) *pref.Profile

// LifecycleEngine is the mutation surface every engine (shard and
// harness, append-only and windowed) implements for the v3 lifecycle
// API. Indices are monitor-global: c is the user's construction-order
// slot, cluster the index into the monitor's full cluster list. A
// clustered engine recomputes the relation of every cluster whose
// membership or member relation a call changes, through its CommonFn. A
// mend draws its candidates from the alive-object source — under a
// window, the objects in it — and a call that needs the source panics on
// an engine built without one.
type LifecycleEngine interface {
	// RegisterUser extends the engine's user table with profile p at slot
	// c (== current table length). The user owns no frontier until
	// ActivateUser runs; split so sharded harnesses can grow every
	// shard's table while only the owning shard activates.
	RegisterUser(c int, p *pref.Profile)
	// ActivateUser gives user c a live frontier built over the alive
	// objects. For clustered engines c joins cluster (== cluster-list
	// length to found a new one), whose relation and filter tier resync.
	ActivateUser(c, cluster int)
	// RemoveUser removes user c: its frontier disappears and, for
	// clustered engines, its cluster's relation is recomputed without c
	// and the filter tier resynced (a cluster losing its last member goes
	// dormant).
	RemoveUser(c int)
	// RetractPreference takes the asserted tuple better ≻ worse on
	// attribute d out of user c's (shared) profile and mends the frontiers
	// that can grow. It fails, changing nothing, if c never asserted it.
	RetractPreference(c, d, better, worse int) error
	// RemoveObject deletes o from every structure it occupies and mends
	// the frontiers it was shielding. The alive objects exclude o already.
	RemoveObject(o object.Object)
}

var (
	_ LifecycleEngine = (*FilterThenVerify)(nil)
	_ LifecycleEngine = (*Sharded)(nil)
)

// MendFrontier admits candidates into f. A candidate enters iff neither
// a pre-existing frontier member nor another candidate dominates it
// under p; every dominance test invokes count. cands must be in arrival
// order, disjoint from f, and — together with f — cover every alive
// object that could dominate a candidate (see the package comment).
// Returns the admitted objects.
func MendFrontier(f *Frontier, cands []object.Object, p *pref.Profile, count func(int)) []object.Object {
	preLen := f.Len() // members admitted during the mend sit past this
	var admitted []object.Object
	for i, x := range cands {
		var px pref.Probe
		p.Prepare(x, &px)
		dominated := false
		for j := 0; j < preLen && !dominated; j++ {
			count(1)
			dominated = px.DominatedBy(f.At(j))
		}
		for j := 0; j < len(cands) && !dominated; j++ {
			if j == i {
				continue
			}
			count(1)
			dominated = px.DominatedBy(cands[j])
		}
		if !dominated {
			f.Add(x)
			admitted = append(admitted, x)
		}
	}
	return admitted
}

// FilterFrontier is the inverse repair, for a grown relation: it evicts
// every member of f that another member dominates under the relation dm
// reads. Grown preferences only add dominance pairs, so the pairwise
// filter is exact (see update.go). Every dominance test invokes count;
// evicted is called with each removed id.
func FilterFrontier(f *Frontier, dm *dominance, count func(int), evicted func(id int)) {
	for _, id := range f.IDs() {
		o, ok := f.ByID(id)
		if !ok {
			continue // removed by an earlier iteration
		}
		dm.fix(o)
		for j := 0; j < f.Len(); j++ {
			op := f.At(j)
			if op.ID == id {
				continue
			}
			count(1)
			if dm.by(op) {
				f.Remove(id)
				evicted(id)
				break
			}
		}
	}
}

// --- FilterThenVerify ---

// Every FilterThenVerify lifecycle call ends by marking the value
// postings stale (staleAll): the repairs below write the filter frontiers
// without them. The member tables follow each call in ClusterShard.

// ActivateUser joins user c to the given cluster (or founds it) and
// builds c's frontier from the resynced filter frontier.
func (f *FilterThenVerify) ActivateUser(c, cluster int) {
	defer f.staleAll()
	f.JoinCluster(c, cluster, f.resync)
}

// RemoveUser drops user c from its cluster and resyncs the filter tier
// under the relation recomputed without c.
func (f *FilterThenVerify) RemoveUser(c int) {
	defer f.staleAll()
	f.LeaveCluster(c, f.resync)
}

// RetractPreference takes the tuple out of user c's relation, resyncs
// c's cluster under its recomputed relation, and mends c's frontier from
// the filter frontier.
func (f *FilterThenVerify) RetractPreference(c, d, better, worse int) error {
	defer f.staleAll()
	return f.RetractTuple(c, d, better, worse, f.resync)
}

// resync is the engine's Resync hook. A founded (or revived) cluster
// builds P_U by scanning the alive objects; a dormant one has nothing to
// serve; otherwise resyncCluster repairs P_U by the direction the
// relation moved. A cluster of its own runs Alg. 1 instead: its member
// replays the alive objects on joining, and on a retraction — its
// profile, edited in place, is both relations handed here — mends P_c
// from every alive object outside it (any of them may have lost its last
// dominator).
func (f *FilterThenVerify) resync(li int, old *pref.Profile) {
	cl := &f.Clusters[li]
	switch {
	case cl.Common == nil:
	case f.Own(li) && old == nil:
		for _, o := range f.Collapsed() {
			f.verifyUser(cl.Members[0], o)
		}
	case f.Own(li):
		f.mendFilterFrontier(li)
	case old == nil:
		for _, o := range f.Collapsed() {
			f.updateClusterFrontier(li, o)
		}
	default:
		f.resyncCluster(li, old)
	}
}

// resyncCluster reconciles the filter frontier with a changed common
// relation. The direction decides the work: a grown relation (new ⊇ old)
// can only evict members — the pairwise filter; a shrunken one (new ⊆
// old) can only admit — the alive-candidate mend. Exact relations move
// one way (a member leaving grows the intersection, a member joining or
// retracting shrinks it); the approximate engine's relation can move
// both ways at once (the θ1 cap displaces tuples), so an incomparable
// change runs both phases.
func (f *FilterThenVerify) resyncCluster(li int, old *pref.Profile) {
	cl := &f.Clusters[li]
	super := cl.Common.Subsumes(old)
	sub := old.Subsumes(cl.Common)
	if super && sub {
		return // unchanged
	}
	if !sub {
		f.FilterClusterFrontier(li)
	}
	if !super {
		f.mendFilterFrontier(li)
	}
}

// mendFilterFrontier admits into P_U the alive objects outside it that
// the shrunken relation no longer dominates; on a cluster of its own the
// admitted objects join its member's C_o.
func (f *FilterThenVerify) mendFilterFrontier(li int) {
	fu := f.ClusterFronts[li]
	var cands []object.Object
	for _, x := range f.Collapsed() {
		if !fu.Contains(x.ID) {
			cands = append(cands, x)
		}
	}
	f.admit(li, MendFrontier(fu, cands, f.Clusters[li].Common, f.tierCount(li)))
}

// admit records in C_o the objects a mend admitted to the filter frontier
// of cluster li when it is a cluster of its own, whose P_U is its
// member's P_c; on a shared cluster the member mends do that.
func (f *FilterThenVerify) admit(li int, admitted []object.Object) {
	if f.Own(li) {
		for _, x := range admitted {
			f.AddTarget(x.ID, f.Clusters[li].Members[0])
		}
	}
}

// RemoveObject deletes o from the filter and member frontiers of every
// cluster and mends what it was shielding: first the filter frontier
// from the alive candidates o dominated under ≻_U, then — only for
// members whose own frontier held o — the member frontiers from the
// mended filter frontier. A member whose P_c did not hold o cannot gain:
// anything o shielded for that member is still shielded by o's own
// ≻_c-dominator, which survives in the filter frontier. On a cluster of
// its own the first mend is Alg. 1's, and all of it. While a twin of o is
// alive (exact engine) nothing else changes: o only leaves its class.
func (f *FilterThenVerify) RemoveObject(o object.Object) {
	defer f.staleAll()
	o, last := f.Leave(o)
	if !last {
		return
	}
	alive := f.Collapsed()
	for li := range f.Clusters {
		cl := &f.Clusters[li]
		fu := f.ClusterFronts[li]
		// An o outside P_U is in no member's P_c (P_c ⊆ P_U): whatever it
		// dominated, its own ≻_U-dominator still does.
		if len(cl.Members) == 0 || !fu.Remove(o.ID) {
			continue
		}
		var holders []int
		for _, c := range cl.Members {
			if f.Holds(o.ID, c) {
				f.UserFronts[c].Remove(o.ID) // a no-op on a cluster of its own: P_c is P_U
				f.RemoveTarget(o.ID, c)
				holders = append(holders, c)
			}
		}
		count := f.tierCount(li)
		var po pref.Probe
		cl.Common.Prepare(o, &po)
		var cands []object.Object
		for _, x := range alive {
			if fu.Contains(x.ID) {
				continue
			}
			count(1)
			if po.Dominates(x) {
				cands = append(cands, x)
			}
		}
		f.admit(li, MendFrontier(fu, cands, cl.Common, count))
		if f.Own(li) {
			continue
		}
		for _, c := range holders {
			f.mendMemberAfterRemoval(li, c, o)
		}
	}
	f.DropTargets(o.ID)
}

// mendMemberAfterRemoval promotes filter-frontier objects into P_c after
// o left it: only objects o dominated under ≻_c can have lost their last
// shield (covers freshly promoted filter objects too, since o ≻_U x
// implies o ≻_c x).
func (f *FilterThenVerify) mendMemberAfterRemoval(li, c int, o object.Object) {
	fu := f.ClusterFronts[li]
	fc := f.UserFronts[c]
	var po pref.Probe
	f.Users[c].Prepare(o, &po)
	for _, x := range fu.Objects() {
		if fc.Contains(x.ID) {
			continue
		}
		f.Ctr.AddVerify(1)
		if po.Dominates(x) && f.Undominated(li, c, x) {
			fc.Add(x)
			f.AddTarget(x.ID, c)
		}
	}
}
