package window

import (
	"fmt"

	"repro/internal/core"
)

// Online preference updates under sliding-window semantics. As in the
// append-only engines (see core's update.go), adding a preference tuple
// only adds dominance pairs, so the frontier P and the Pareto frontier
// buffer PB can only lose members — but an entry that stays may have
// gained a younger dominator, so the buffer is rebuilt with its shields
// (see lifecycle.go) and P read off them.
type prefUpdater interface {
	ApplyPreference(c, d, better, worse int) error
}

var (
	_ prefUpdater = (*BaselineSW)(nil)
	_ prefUpdater = (*FilterThenVerifySW)(nil)
)

// ApplyPreference records that user c now also prefers better over worse
// on attribute d, and rebuilds the user's buffer and frontier.
func (b *BaselineSW) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(b.Users) {
		return fmt.Errorf("window: no user %d", c)
	}
	if err := b.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	b.rebuildUser(c)
	return nil
}

// ApplyPreference for the filter-then-verify engine: grow the user's
// relation, recompute the affected cluster's common relation, rebuild the
// cluster tier if that changed it (propagating removals to members), and
// finally filter the user's own frontier.
func (f *FilterThenVerifySW) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(f.Users) {
		return fmt.Errorf("window: no user %d", c)
	}
	if err := f.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	ui := f.ClusterOf(c)
	f.staleScreen(ui) // whether or not ≻_U moves, the union of the members' relations did
	f.resyncCluster(ui, f.CommonOf(f.Clusters[ui].Members))

	// The changed user's own frontier, filtered under their new prefs.
	core.FilterFrontier(f.UserFronts[c], f.Users[c], f.Ctr.AddVerify, func(id int) {
		f.RemoveTarget(id, c)
	})
	return nil
}
