package core

import (
	"fmt"
)

// Online preference updates. The paper assumes preferences "stand or only
// change occasionally"; this extension handles the occasional change
// without rebuilding the engine, for the growth direction: adding a
// preference tuple (plus its transitive closure) only ever adds dominance
// pairs, so every frontier can only shrink, and filtering the current
// frontier pairwise is exact:
//
// If an alive object x outside the old frontier dominated o under the new
// preferences, then x was dominated by some old frontier member y, still
// is (growth preserves dominance), and y — or whatever new-frontier member
// dominates y — dominates o transitively. So scanning old frontier members
// against each other loses nothing.
//
// Removing a preference tuple can resurrect arbitrary previously-dominated
// objects, which an append-only engine has discarded; that direction
// requires a rebuild and is deliberately not offered.

// ApplyPreference records that user c now also prefers value better over
// value worse on attribute d, and repairs the user's frontier in place.
// It fails if the tuple would break the strict-partial-order axioms.
func (b *Baseline) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(b.Users) {
		return fmt.Errorf("core: no user %d", c)
	}
	if err := b.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	FilterFrontier(b.Fronts[c], b.Users[c], b.Ctr.AddVerify, func(id int) {
		b.RemoveTarget(id, c)
	})
	return nil
}

// ApplyPreference records a new preference tuple for user c on attribute d
// and repairs, in order: the user's cluster's common relation (which can
// only grow — it is the intersection of member relations and one member's
// relation grew), the cluster's filter frontier, and the member frontiers.
func (f *FilterThenVerify) ApplyPreference(c, d, better, worse int) error {
	if c < 0 || c >= len(f.Users) {
		return fmt.Errorf("core: no user %d", c)
	}
	if err := f.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	ui := f.ClusterOf(c)
	cl := &f.Clusters[ui]

	// Recompute the common relation of the affected cluster through the
	// configured CommonFn. For the exact engines (pref.Common) it can
	// only grow — the new intersection subsumes the old one — so the
	// pairwise filter below is exact; the approximate relation may move
	// either way, keeping the same one-sided repair the arrival path
	// applies (Sec. 6.2's bounded inaccuracy).
	f.setCommon(ui, f.CommonOf(cl.Members))

	// Filter P_U pairwise under the recomputed common relation; removals
	// propagate to every member frontier (the removed object is dominated
	// under ≻_U, hence under every member's preferences).
	f.FilterClusterFrontier(ui)

	// Filter the changed user's own frontier under their new preferences.
	FilterFrontier(f.UserFronts[c], f.Users[c], f.Ctr.AddVerify, func(id int) {
		f.RemoveTarget(id, c)
	})
	return nil
}
