package window

import (
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
)

// Lifecycle operations under sliding-window semantics. The mechanism is
// the expiry machinery generalized from "the oldest object leaves" to
// "an arbitrary object leaves" (RemoveObject) and "dominance edges
// leave" (RetractPreference, RemoveUser shrinking a cluster relation):
//
//   - The ring is the alive set. RemoveObject tombstones the slot — the
//     window keeps aging at the same rate, removal never extends other
//     objects' lifetimes — and expiry of a tombstone is a no-op.
//   - The Pareto frontier buffer must itself be mended, unlike on
//     expiry: the expiring object is the oldest and succeeds nobody, so
//     it never shields a buffer candidate, but a mid-window removal (or
//     a retracted tuple) can erase a candidate's last *succeeding*
//     dominator (Def. 7.4). Candidates re-enter at their arrival
//     position, which insert recovers from the ascending-ID order.
//   - The frontier then mends from the buffer in arrival order, exactly
//     like expiry: P ⊆ PB always (a frontier member has no alive
//     dominator, in particular no succeeding one), and a candidate's
//     buffer dominators precede it, so walking in arrival order admits
//     dominators before dominatees.
var (
	_ core.LifecycleEngine = (*BaselineSW)(nil)
	_ core.LifecycleEngine = (*FilterThenVerifySW)(nil)
)

// --- BaselineSW ---

// SetClusterTotal is a no-op: BaselineSW has no cluster tier.
func (b *BaselineSW) SetClusterTotal(int) {}

// SetCommonFn is a no-op: BaselineSW has no cluster relations.
func (b *BaselineSW) SetCommonFn(core.CommonFn) {}

// RegisterUser appends profile p as user c (no structures yet).
func (b *BaselineSW) RegisterUser(c int, p *pref.Profile) {
	if c != len(b.users) {
		panic("window: RegisterUser out of order")
	}
	b.users = append(b.users, p)
	b.fronts = append(b.fronts, nil)
	b.buffers = append(b.buffers, nil)
}

// ActivateUser builds user c's frontier and buffer by replaying the
// in-window objects through the standard arrival scan.
func (b *BaselineSW) ActivateUser(c int, _ int, _ *pref.Profile, _ []object.Object) {
	if b.members != nil {
		b.members = append(b.members, c)
	}
	b.fronts[c] = core.NewFrontier()
	b.buffers[c] = newBuffer()
	for _, o := range b.win.aliveTail() {
		b.arriveUser(c, o)
	}
}

// DeactivateUser blanks user c's slot without mending (recovery path).
func (b *BaselineSW) DeactivateUser(c int) {
	b.fronts[c] = nil
	b.buffers[c] = nil
	for i, m := range b.members {
		if m == c {
			b.members = append(b.members[:i], b.members[i+1:]...)
			break
		}
	}
}

// RemoveUser drops user c's structures and target entries.
func (b *BaselineSW) RemoveUser(c int, _ *pref.Profile, _ []object.Object) {
	if b.fronts[c] == nil {
		return
	}
	for _, id := range b.fronts[c].IDs() {
		b.targets.remove(id, c)
	}
	b.DeactivateUser(c)
}

// mendBuffer re-admits in-window objects whose last succeeding dominator
// under p vanished. pass reports each candidate for pre-filtering (count
// any comparison it performs); nil admits every non-member.
func mendBuffer(pb *buffer, ras []object.Object, p *pref.Profile, pass func(x object.Object) bool, count func(int)) {
	for i, x := range ras {
		if pb.has(x.ID) {
			continue
		}
		if pass != nil && !pass(x) {
			continue
		}
		var px pref.Probe
		p.Prepare(x, &px)
		blocked := false
		for j := i + 1; j < len(ras) && !blocked; j++ {
			count(1)
			blocked = px.DominatedBy(ras[j])
		}
		if !blocked {
			pb.insert(x)
		}
	}
}

// RetractPreference mends user c's buffer and frontier after the caller
// shrank c's preference relation.
func (b *BaselineSW) RetractPreference(c int, _ *pref.Profile, _ []object.Object) {
	u := b.users[c]
	ras := b.win.aliveTail()
	mendBuffer(b.buffers[c], ras, u, nil, b.ctr.AddVerify)
	f := b.fronts[c]
	for _, x := range b.buffers[c].objects() {
		if !f.Contains(x.ID) {
			b.mendUser(c, x)
		}
	}
}

// RemoveObject tombstones o's ring slot and, per user, re-admits the
// buffer candidates o was the last succeeding dominator of, then — when
// o occupied the frontier — promotes buffered objects o was shielding.
func (b *BaselineSW) RemoveObject(o object.Object, _ []object.Object) {
	if !b.win.knockOut(o.ID) {
		return // expired or never in this window: no live structure holds it
	}
	ras := b.win.aliveTail()
	b.each(func(c int) {
		u := b.users[c]
		f := b.fronts[c]
		pb := b.buffers[c]
		pb.remove(o.ID)
		inP := f.Remove(o.ID)
		if inP {
			b.targets.remove(o.ID, c)
		}
		var po pref.Probe
		u.Prepare(o, &po)
		// Only objects preceding o had o as a succeeding dominator.
		mendBuffer(pb, ras, u, func(x object.Object) bool {
			if x.ID >= o.ID {
				return false
			}
			b.ctr.AddVerify(1)
			return po.Dominates(x)
		}, b.ctr.AddVerify)
		if inP {
			for _, x := range pb.objects() {
				if f.Contains(x.ID) {
					continue
				}
				b.ctr.AddVerify(1)
				if po.Dominates(x) {
					b.mendUser(c, x)
				}
			}
		}
	})
	b.targets.drop(o.ID)
}

// --- FilterThenVerifySW ---

// common recomputes a cluster relation from member profiles through the
// configured CommonFn (exact intersection by default).
func (f *FilterThenVerifySW) common(members []int) *pref.Profile {
	ps := make([]*pref.Profile, len(members))
	for i, m := range members {
		ps[i] = f.users[m]
	}
	if f.commonFn != nil {
		return f.commonFn(ps)
	}
	return pref.Common(ps)
}

// SetCommonFn installs the cluster-relation recompute used by online
// preference updates.
func (f *FilterThenVerifySW) SetCommonFn(fn core.CommonFn) { f.commonFn = fn }

// SetClusterTotal grows the full-cluster-list length a shard instance
// keys its state against.
func (f *FilterThenVerifySW) SetClusterTotal(n int) {
	if f.globalIdx != nil && n > f.total {
		f.total = n
	}
}

// localCluster maps a monitor-global cluster index to this instance's
// local list, or -1 if another shard owns it.
func (f *FilterThenVerifySW) localCluster(cluster int) int {
	if f.globalIdx == nil {
		if cluster < len(f.clusters) {
			return cluster
		}
		return -1
	}
	for li, gi := range f.globalIdx {
		if gi == cluster {
			return li
		}
	}
	return -1
}

// filterClusterFrontier evicts filter-frontier members dominated under
// the (grown) common relation, propagating evictions to member
// frontiers.
func (f *FilterThenVerifySW) filterClusterFrontier(li int) {
	cl := &f.clusters[li]
	core.FilterFrontier(f.clusterFs[li], cl.Common, f.ctr.AddFilter, func(id int) {
		for _, m := range cl.Members {
			if f.userFs[m].Remove(id) {
				f.targets.remove(id, m)
			}
		}
	})
}

// RegisterUser appends profile p as user c (no frontier yet).
func (f *FilterThenVerifySW) RegisterUser(c int, p *pref.Profile) {
	if c != len(f.users) {
		panic("window: RegisterUser out of order")
	}
	f.users = append(f.users, p)
	f.userFs = append(f.userFs, nil)
}

// ActivateUser joins user c to the given cluster (or founds it), resyncs
// the cluster tier under the recomputed common relation, and builds c's
// frontier from the filter frontier (Lemma 4.6).
func (f *FilterThenVerifySW) ActivateUser(c int, cluster int, common *pref.Profile, _ []object.Object) {
	f.userFs[c] = core.NewFrontier()
	li := f.localCluster(cluster)
	if li < 0 {
		li = len(f.clusters)
		f.clusters = append(f.clusters, core.Cluster{Members: []int{c}, Common: common})
		f.clusterFs = append(f.clusterFs, core.NewFrontier())
		f.buffers = append(f.buffers, newBuffer())
		if f.globalIdx != nil {
			f.globalIdx = append(f.globalIdx, cluster)
			if cluster+1 > f.total {
				f.total = cluster + 1
			}
		}
		for _, o := range f.win.aliveTail() {
			f.arriveCluster(li, o)
		}
	} else {
		cl := &f.clusters[li]
		old := cl.Common
		cl.Common = common
		cl.Members = append(cl.Members, c)
		f.resyncCluster(li, old)
	}
	f.mendMemberFrontier(li, c)
}

// mendMemberFrontier admits missing filter-frontier objects into P_c by
// the Lemma 4.6 criterion (builds P_c from scratch over an empty
// frontier).
func (f *FilterThenVerifySW) mendMemberFrontier(li, c int) {
	fc := f.userFs[c]
	for _, x := range f.clusterFs[li].Objects() {
		if !fc.Contains(x.ID) {
			f.mendUser(li, c, x)
		}
	}
}

// DeactivateUser blanks user c's slot without mending (recovery path).
func (f *FilterThenVerifySW) DeactivateUser(c int) { f.userFs[c] = nil }

// RemoveUser drops user c from its cluster, resyncing the cluster tier
// under the recomputed common relation; an emptied cluster goes dormant.
func (f *FilterThenVerifySW) RemoveUser(c int, common *pref.Profile, _ []object.Object) {
	li := f.clusterOf(c)
	cl := &f.clusters[li]
	for i, m := range cl.Members {
		if m == c {
			cl.Members = append(cl.Members[:i], cl.Members[i+1:]...)
			break
		}
	}
	for _, id := range f.userFs[c].IDs() {
		f.targets.remove(id, c)
	}
	f.userFs[c] = nil
	if len(cl.Members) == 0 {
		cl.Common = nil
		f.clusterFs[li] = core.NewFrontier()
		f.buffers[li] = newBuffer()
		return
	}
	old := cl.Common
	cl.Common = common
	f.resyncCluster(li, old)
}

// RetractPreference resyncs user c's cluster under the recomputed common
// relation, then mends c's own frontier from the filter frontier.
func (f *FilterThenVerifySW) RetractPreference(c int, common *pref.Profile, _ []object.Object) {
	li := f.clusterOf(c)
	cl := &f.clusters[li]
	old := cl.Common
	cl.Common = common
	f.resyncCluster(li, old)
	f.mendMemberFrontier(li, c)
}

// resyncCluster reconciles the cluster tier (PB_U and P_U) with a
// changed common relation: a grown relation filters both structures, a
// shrunken one mends both, the approximate engine's incomparable change
// runs both phases.
func (f *FilterThenVerifySW) resyncCluster(li int, old *pref.Profile) {
	cl := &f.clusters[li]
	super := cl.Common.Subsumes(old)
	sub := old.Subsumes(cl.Common)
	if super && sub {
		return // unchanged
	}
	if !sub { // relation grew: structures can only lose members
		filterBuffer(f.buffers[li], cl.Common, f.ctr.AddFilter)
		f.filterClusterFrontier(li)
	}
	if !super { // relation shrank: structures can only gain members
		ras := f.win.aliveTail()
		pb := f.buffers[li]
		mendBuffer(pb, ras, cl.Common, nil, f.ctr.AddFilter)
		fu := f.clusterFs[li]
		for _, x := range pb.objects() {
			if !fu.Contains(x.ID) {
				f.mendCluster(li, x)
			}
		}
	}
}

// RemoveObject tombstones o's ring slot and mends the cluster tiers it
// occupied: PB_U candidates o was the last succeeding ≻_U-dominator of
// re-enter, P_U mends from the buffer, and members whose own frontier
// held o mend from the filter frontier (mirroring expireCluster).
func (f *FilterThenVerifySW) RemoveObject(o object.Object, _ []object.Object) {
	if !f.win.knockOut(o.ID) {
		return
	}
	ras := f.win.aliveTail()
	for li := range f.clusters {
		cl := &f.clusters[li]
		if len(cl.Members) == 0 {
			continue
		}
		fu := f.clusterFs[li]
		pb := f.buffers[li]
		pb.remove(o.ID)
		if fu.Remove(o.ID) {
			// Tier 1: mend PB_U, then P_U from it (arrival order). Only
			// objects preceding o had it as a succeeding dominator.
			var po pref.Probe
			cl.Common.Prepare(o, &po)
			mendBuffer(pb, ras, cl.Common, func(x object.Object) bool {
				if x.ID >= o.ID {
					return false
				}
				f.ctr.AddFilter(1)
				return po.Dominates(x)
			}, f.ctr.AddFilter)
			for _, x := range pb.objects() {
				if fu.Contains(x.ID) {
					continue
				}
				f.ctr.AddFilter(1)
				if po.Dominates(x) {
					f.mendCluster(li, x)
				}
			}
		}
		// Tier 2: members whose P_c held o mend from the updated P_U.
		f.mendMembers(li, o)
	}
	f.targets.drop(o.ID)
}
