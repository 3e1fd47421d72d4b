package window

import (
	"slices"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
)

// Lifecycle operations and preference updates under sliding-window
// semantics. The ring is the alive set: RemoveObject tombstones the slot
// — the window keeps aging at the same rate, removal never extends other
// objects' lifetimes — and expiry of a tombstone touches no frontier (it
// only retires the id's C_o slot). What these operations undo is the
// premise the buffers' shields rest on, that objects leave oldest first
// under a fixed relation, so each re-derives the shields it invalidated
// and then reads the frontier off them (reconcile):
//
//   - A changed relation (ApplyPreference, RetractPreference, a cluster
//     gaining or losing a member) can move any entry in or out of the
//     buffer and any shield; the buffer is rebuilt by sending the alive
//     objects through arrive again, in arrival order. That is exact
//     whichever way the relation moved — grown, shrunk, or the
//     approximate engine's incomparable change — and ActivateUser builds
//     a newcomer's structures the same way. Adding a tuple only adds
//     dominance pairs, so P and PB can only lose members there — but an
//     entry that stays may have gained a younger dominator, which is why
//     the buffer is rebuilt rather than filtered.
//   - A mid-window removal touches only what the removed object touched
//     (depart): the older objects it alone kept out of the buffer
//     re-enter, and they and the entries it shielded look for their next
//     dominator among the entries older than it.
//
// FilterThenVerifySW shares the orchestration of every call that changes
// a relation or the membership with the append-only engine
// (core.ClusterShard), including the recompute of ≻_U and the Lemma 4.6
// member mend, and supplies only its Resync hook. The buffer comparisons
// count as filter work on a shared cluster and as verify work on a
// cluster of its own, where the buffer is its member's PB_c.

var _ core.LifecycleEngine = (*FilterThenVerifySW)(nil)

// dominatorBelow returns the id of the youngest entry among list[:from]
// that dominates list[i] under p, or noShield, and the comparisons spent.
func (b *buffer) dominatorBelow(p *pref.Profile, i, from int) (shield, cmps int) {
	var po pref.Probe
	p.Prepare(b.list[i], &po)
	for j := from - 1; j >= 0; j-- {
		cmps++
		if po.DominatedBy(b.list[j]) {
			return b.list[j].ID, cmps
		}
	}
	return noShield, cmps
}

// rebuild re-derives the buffer and its shields under p from the alive
// objects, given in arrival order, and returns the comparisons spent.
func (b *buffer) rebuild(alive []object.Object, p *pref.Profile) (cmps int) {
	clear(b.list)
	b.list, b.shield = b.list[:0], b.shield[:0]
	var evicted []object.Object // reconcile reads the frontier off the shields instead
	for _, o := range alive {
		var po pref.Probe
		p.Prepare(o, &po)
		var n int
		_, n, evicted = b.arrive(&po, o, evicted[:0])
		cmps += n
	}
	return cmps
}

// depart takes o, which RemoveObject retired from the middle of the
// window, out of the buffer; alive is the window without it, in arrival
// order. It reports whether o was buffered and the comparisons spent. An
// unbuffered o changes nothing: a younger object dominates it, and with it
// everything o kept out. Otherwise the alive objects older than o that o
// dominates and no younger entry does re-enter at their arrival position
// — youngest first, so that each is in place to keep out the older ones it
// dominates — and they, like the entries o shielded, find their next
// shield among the entries older than o: o was the youngest dominator of
// them all.
func (b *buffer) depart(o object.Object, alive []object.Object, p *pref.Profile) (held bool, cmps int) {
	at, ok := b.find(o.ID)
	if !ok {
		return false, 0
	}
	b.removeAt(at)
	var po pref.Probe
	p.Prepare(o, &po)
	older, _ := slices.BinarySearchFunc(alive, o.ID, compareID)
	for k := older - 1; k >= 0; k-- {
		x := alive[k]
		i, in := b.find(x.ID)
		if in {
			continue
		}
		cmps++
		if !po.Dominates(x) {
			continue
		}
		var px pref.Probe
		p.Prepare(x, &px)
		blocked := false
		for j := len(b.list) - 1; j >= i && !blocked; j-- {
			cmps++
			blocked = px.DominatedBy(b.list[j])
		}
		if !blocked {
			b.list = slices.Insert(b.list, i, x)
			b.shield = slices.Insert(b.shield, i, o.ID) // o was its youngest dominator; re-derived below
			at++
		}
	}
	for i := range b.list {
		if b.shield[i] == o.ID {
			var n int
			b.shield[i], n = b.dominatorBelow(p, i, min(i, at))
			cmps += n
		}
	}
	return true, cmps
}

// reconcile makes front the set of entries without a shield, after a
// lifecycle repair changed shields behind its back: left is told each id
// that leaves the frontier, joined (if not nil) each that enters, in
// arrival order.
func (b *buffer) reconcile(front *core.Frontier, left, joined func(id int)) {
	for _, id := range front.IDs() {
		if i, ok := b.find(id); !ok || b.shield[i] != noShield {
			front.Remove(id)
			left(id)
		}
	}
	for i, o := range b.list {
		if b.shield[i] == noShield && !front.Contains(o.ID) {
			front.Add(o)
			if joined != nil {
				joined(o.ID)
			}
		}
	}
}

// --- FilterThenVerifySW ---

// ActivateUser joins user c to the given cluster (or founds it) and
// builds c's frontier from the rebuilt filter frontier (Lemma 4.6).
func (f *FilterThenVerifySW) ActivateUser(c, cluster int) { f.JoinCluster(c, cluster, f.resync) }

// RemoveUser drops user c from its cluster and rebuilds the cluster tier
// under the relation recomputed without c.
func (f *FilterThenVerifySW) RemoveUser(c int) { f.LeaveCluster(c, f.resync) }

// RetractPreference takes the tuple out of user c's relation, rebuilds
// the tier of c's cluster if its relation moved, and mends c's frontier
// from the filter frontier.
func (f *FilterThenVerifySW) RetractPreference(c, d, better, worse int) error {
	return f.RetractTuple(c, d, better, worse, f.resync)
}

// ApplyPreference grows user c's relation, rebuilds the tier of c's
// cluster if its relation moved (evictions leave the member frontiers
// too), and filters c's own frontier.
func (f *FilterThenVerifySW) ApplyPreference(c, d, better, worse int) error {
	return f.ApplyTuple(c, d, better, worse, f.resync)
}

// resync is the engine's core.Resync hook. A founded cluster gets its
// buffer; a dormant one releases it. Otherwise the tier is rebuilt if ≻_U
// moved — always for a cluster founded or revived, which had no relation,
// and for a cluster of its own, whose relation is its member's profile,
// edited in place: old is that same profile, and Equal cannot see the
// change. The member table follows the call in core.ClusterShard.
func (f *FilterThenVerifySW) resync(li int, old *pref.Profile) {
	if li == len(f.buffers) {
		f.buffers = append(f.buffers, newBuffer())
	}
	common := f.Clusters[li].Common
	if common == nil {
		f.buffers[li] = newBuffer()
		return
	}
	if old == nil || f.Own(li) || !common.Equal(old) {
		f.rebuildCluster(li)
	}
}

// rebuildCluster re-derives PB_U and P_U from the in-window objects under
// cluster li's common relation as it now stands.
func (f *FilterThenVerifySW) rebuildCluster(li int) {
	f.CountTier(li, f.buffers[li].rebuild(f.win.aliveTail(), f.Clusters[li].Common))
	f.reconcileCluster(li)
}

// reconcileCluster reads P_U off PB_U's shields; objects that leave it
// leave the member frontiers too. Members gain nothing here — the callers
// mend the ones an operation can promote for — except on a cluster of its
// own, where P_U is P_c and what enters joins C_o.
func (f *FilterThenVerifySW) reconcileCluster(li int) {
	var joined func(id int)
	if f.Own(li) {
		c := f.Clusters[li].Members[0]
		joined = func(id int) { f.AddTarget(id, c) }
	}
	f.buffers[li].reconcile(f.ClusterFronts[li], func(id int) { f.EvictFromMembers(li, id) }, joined)
}

// RemoveObject tombstones o's ring slot and takes o out of every cluster
// tier: PB_U and P_U promote what o kept out of them, then members whose
// own frontier held o mend from the updated P_U (mirroring
// expireCluster) — on a cluster of its own, where P_U is P_c, the
// reconcile is all of it.
func (f *FilterThenVerifySW) RemoveObject(o object.Object) {
	if !f.win.knockOut(o.ID) {
		return
	}
	alive := f.win.aliveTail()
	for li := range f.Clusters {
		cl := &f.Clusters[li]
		if len(cl.Members) == 0 {
			continue
		}
		held, cmps := f.buffers[li].depart(o, alive, cl.Common)
		f.CountTier(li, cmps)
		if !held {
			continue
		}
		if f.Own(li) {
			f.reconcileCluster(li)
			continue
		}
		// o goes first, by hand: the members still holding it are how
		// MendMembers knows whom to mend.
		f.ClusterFronts[li].Remove(o.ID)
		f.reconcileCluster(li)
		f.MendMembers(li, o)
	}
	f.DropTargets(o.ID)
}
