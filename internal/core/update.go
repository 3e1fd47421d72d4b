package core

import "repro/internal/pref"

// Online preference updates. The paper assumes preferences "stand or only
// change occasionally"; this extension handles the occasional change
// without rebuilding the engine. Adding a preference tuple (plus its
// transitive closure) only ever adds dominance pairs, so every frontier
// can only shrink, and filtering the current frontier pairwise is exact:
//
// If an alive object x outside the old frontier dominated o under the new
// preferences, then x was dominated by some old frontier member y, still
// is (growth preserves dominance), and y — or whatever new-frontier member
// dominates y — dominates o transitively. So scanning old frontier members
// against each other loses nothing.
//
// Removing a preference tuple is the other direction: it can resurrect
// previously dominated objects, which the frontier no longer holds, so
// RetractPreference (lifecycle.go) mends from the alive objects instead
// of filtering.

// ApplyPreference records a new preference tuple for user c on attribute d
// and repairs, in order: the user's cluster's common relation, the
// cluster's filter frontier, and the user's own frontier. The exact
// relation can only grow — it is the intersection of member relations and
// one member's relation grew — so the pairwise filter of P_U is exact, and
// each object it evicts leaves every member frontier (it is dominated
// under ≻_U, hence under every member's relation). The approximate
// relation may move either way; the filter is then the same one-sided
// repair the arrival path applies (Sec. 6.2's bounded inaccuracy). On a
// cluster of its own the filter of P_U is Alg. 1's repair of P_c.
func (f *FilterThenVerify) ApplyPreference(c, d, better, worse int) error {
	defer f.staleAll()
	return f.ApplyTuple(c, d, better, worse, func(li int, _ *pref.Profile) {
		f.FilterClusterFrontier(li)
	})
}
