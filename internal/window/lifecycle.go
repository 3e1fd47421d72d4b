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

// RegisterUser appends profile p as user c (no structures yet).
func (b *BaselineSW) RegisterUser(c int, p *pref.Profile) {
	b.UserShard.RegisterUser(c, p)
	b.buffers = append(b.buffers, nil)
}

// ActivateUser builds user c's frontier and buffer by replaying the
// in-window objects through the standard arrival scan.
func (b *BaselineSW) ActivateUser(c int, _ int, _ *pref.Profile, _ []object.Object) {
	b.Activate(c)
	b.buffers[c] = newBuffer()
	for _, o := range b.win.aliveTail() {
		b.arriveUser(c, o)
	}
}

// DeactivateUser blanks user c's slot without mending (recovery path).
func (b *BaselineSW) DeactivateUser(c int) {
	b.UserShard.DeactivateUser(c)
	b.buffers[c] = nil
}

// RemoveUser drops user c's structures and target entries.
func (b *BaselineSW) RemoveUser(c int, _ *pref.Profile, _ []object.Object) {
	b.UserShard.RemoveUser(c, nil, nil)
	b.buffers[c] = nil
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
	u := b.Users[c]
	ras := b.win.aliveTail()
	mendBuffer(b.buffers[c], ras, u, nil, b.Ctr.AddVerify)
	f := b.Fronts[c]
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
	for _, c := range b.Members {
		u := b.Users[c]
		f := b.Fronts[c]
		pb := b.buffers[c]
		pb.remove(o.ID)
		inP := b.Holds(o.ID, c)
		if inP {
			f.Remove(o.ID)
			b.RemoveTarget(o.ID, c)
		}
		var po pref.Probe
		u.Prepare(o, &po)
		// Only objects preceding o had o as a succeeding dominator.
		mendBuffer(pb, ras, u, func(x object.Object) bool {
			if x.ID >= o.ID {
				return false
			}
			b.Ctr.AddVerify(1)
			return po.Dominates(x)
		}, b.Ctr.AddVerify)
		if inP {
			for _, x := range pb.objects() {
				if f.Contains(x.ID) {
					continue
				}
				b.Ctr.AddVerify(1)
				if po.Dominates(x) {
					b.mendUser(c, x)
				}
			}
		}
	}
	b.DropTargets(o.ID)
}

// --- FilterThenVerifySW ---

// ActivateUser joins user c to the given cluster (or founds it), resyncs
// the cluster tier under the recomputed common relation, and builds c's
// frontier from the filter frontier (Lemma 4.6).
func (f *FilterThenVerifySW) ActivateUser(c int, cluster int, common *pref.Profile, _ []object.Object) {
	f.UserFronts[c] = core.NewFrontier()
	li := f.LocalCluster(cluster)
	if li < 0 {
		li = f.Found(cluster, c, common)
		f.buffers = append(f.buffers, newBuffer())
		for _, o := range f.win.aliveTail() {
			f.arriveCluster(li, o)
		}
	} else {
		cl := &f.Clusters[li]
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
	fc := f.UserFronts[c]
	for _, x := range f.ClusterFronts[li].Objects() {
		if !fc.Contains(x.ID) {
			f.mendUser(li, c, x)
		}
	}
}

// RemoveUser drops user c from its cluster, resyncing the cluster tier
// under the recomputed common relation; an emptied cluster goes dormant.
func (f *FilterThenVerifySW) RemoveUser(c int, common *pref.Profile, _ []object.Object) {
	li, emptied := f.DropMember(c)
	if emptied {
		f.buffers[li] = newBuffer()
		return
	}
	cl := &f.Clusters[li]
	old := cl.Common
	cl.Common = common
	f.resyncCluster(li, old)
}

// RetractPreference resyncs user c's cluster under the recomputed common
// relation, then mends c's own frontier from the filter frontier.
func (f *FilterThenVerifySW) RetractPreference(c int, common *pref.Profile, _ []object.Object) {
	li := f.ClusterOf(c)
	cl := &f.Clusters[li]
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
	cl := &f.Clusters[li]
	super := cl.Common.Subsumes(old)
	sub := old.Subsumes(cl.Common)
	if super && sub {
		return // unchanged
	}
	if !sub { // relation grew: structures can only lose members
		filterBuffer(f.buffers[li], cl.Common, f.Ctr.AddFilter)
		f.FilterClusterFrontier(li)
	}
	if !super { // relation shrank: structures can only gain members
		ras := f.win.aliveTail()
		pb := f.buffers[li]
		mendBuffer(pb, ras, cl.Common, nil, f.Ctr.AddFilter)
		fu := f.ClusterFronts[li]
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
	for li := range f.Clusters {
		cl := &f.Clusters[li]
		if len(cl.Members) == 0 {
			continue
		}
		fu := f.ClusterFronts[li]
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
				f.Ctr.AddFilter(1)
				return po.Dominates(x)
			}, f.Ctr.AddFilter)
			for _, x := range pb.objects() {
				if fu.Contains(x.ID) {
					continue
				}
				f.Ctr.AddFilter(1)
				if po.Dominates(x) {
					f.mendCluster(li, x)
				}
			}
		}
		// Tier 2: members whose P_c held o mend from the updated P_U.
		f.mendMembers(li, o)
	}
	f.DropTargets(o.ID)
}
