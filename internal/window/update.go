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
	if c < 0 || c >= len(b.users) {
		return fmt.Errorf("window: no user %d", c)
	}
	if err := b.users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	filterBuffer(b.buffers[c], b.users[c], b.ctr.AddVerify)
	core.FilterFrontier(b.fronts[c], b.users[c], b.ctr.AddVerify, func(id int) {
		b.targets.remove(id, c)
	})
	return nil
}

// ApplyPreference for the filter-then-verify engine: grow the user's
// relation, recompute the affected cluster's common relation, filter the
// cluster buffer and filter frontier (propagating removals to members),
// and finally filter the user's own frontier.
func (f *FilterThenVerifySW) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(f.users) {
		return fmt.Errorf("window: no user %d", c)
	}
	if err := f.users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	ui := f.clusterOf(c)
	cl := &f.clusters[ui]
	cl.Common = f.common(cl.Members)

	filterBuffer(f.buffers[ui], cl.Common, f.ctr.AddFilter)
	f.filterClusterFrontier(ui)

	// The changed user's own frontier, filtered under their new prefs.
	core.FilterFrontier(f.userFs[c], f.users[c], f.ctr.AddVerify, func(id int) {
		f.targets.remove(id, c)
	})
	return nil
}

// clusterOf locates the cluster containing user c.
func (f *FilterThenVerifySW) clusterOf(c int) int {
	for ui, cl := range f.clusters {
		for _, m := range cl.Members {
			if m == c {
				return ui
			}
		}
	}
	panic(fmt.Sprintf("window: user %d not in any cluster", c))
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
