package window

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pref"
)

// Online preference updates under sliding-window semantics. As in the
// append-only engines (see core's update.go), adding a preference tuple
// only adds dominance pairs, so the frontier P and the Pareto frontier
// buffer PB can only lose members; filtering each in place is exact:
//
//   - P: a member stays iff no other (old) member dominates it under the
//     grown preferences — any outside dominator is itself transitively
//     dominated by a member.
//   - PB: a member stays iff no *succeeding* buffer member dominates it
//     (Def. 7.4); any succeeding alive dominator outside the buffer is
//     dominated by a succeeding buffer member, which then dominates the
//     candidate transitively and also succeeds it.
type prefUpdater interface {
	ApplyPreference(c, d, better, worse int) error
}

var (
	_ prefUpdater = (*BaselineSW)(nil)
	_ prefUpdater = (*FilterThenVerifySW)(nil)
)

// ApplyPreference records that user c now also prefers better over worse
// on attribute d, and repairs the user's frontier and buffer in place.
func (b *BaselineSW) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(b.Users) {
		return fmt.Errorf("window: no user %d", c)
	}
	if err := b.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	filterBuffer(b.buffers[c], b.Users[c], b.Ctr.AddVerify)
	core.FilterFrontier(b.Fronts[c], b.Users[c], b.Ctr.AddVerify, func(id int) {
		b.RemoveTarget(id, c)
	})
	return nil
}

// ApplyPreference for the filter-then-verify engine: grow the user's
// relation, recompute the affected cluster's common relation, filter the
// cluster buffer and filter frontier (propagating removals to members),
// and finally filter the user's own frontier.
func (f *FilterThenVerifySW) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(f.Users) {
		return fmt.Errorf("window: no user %d", c)
	}
	if err := f.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	ui := f.ClusterOf(c)
	cl := &f.Clusters[ui]
	cl.Common = f.CommonOf(cl.Members)

	filterBuffer(f.buffers[ui], cl.Common, f.Ctr.AddFilter)
	f.FilterClusterFrontier(ui)

	// The changed user's own frontier, filtered under their new prefs.
	core.FilterFrontier(f.UserFronts[c], f.Users[c], f.Ctr.AddVerify, func(id int) {
		f.RemoveTarget(id, c)
	})
	return nil
}

// filterBuffer removes buffered objects dominated by a succeeding buffer
// member under the given profile, preserving arrival order.
func filterBuffer(pb *buffer, p *pref.Profile, count func(int)) {
	list := pb.objects()
	for i := 0; i < len(list); i++ {
		o := list[i]
		var po pref.Probe
		p.Prepare(o, &po)
		dominated := false
		for j := i + 1; j < len(list) && !dominated; j++ {
			count(1)
			dominated = po.DominatedBy(list[j])
		}
		if dominated {
			pb.remove(o.ID)
			list = pb.objects()
			i--
		}
	}
}
