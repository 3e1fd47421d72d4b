package window

import (
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// The union screen in front of Alg. 5's member tier (package comment,
// third deviation). Every maintained cluster keeps the union of its
// members' relations (pref.Union); one probe against it says whether
// *any* member could order a pair, so one pass over P_U, shared by all
// members, replaces a scan per member wherever that pays. The screen
// decides which comparisons are made, never their outcome, and each of
// its probes is counted as a verify comparison like the comparisons it
// saves.

// union is one cluster's pref.Union and whether it still describes the
// cluster's members. Anything that changes a member's relation or the
// membership marks it stale; it is rebuilt, in place, on its next use.
type union struct {
	pref.Union
	current bool
}

// screen returns cluster li's union, rebuilding it first if it is stale.
func (f *FilterThenVerifySW) screen(li int) *pref.Union {
	u := &f.unions[li]
	if !u.current {
		members := f.Clusters[li].Members
		u.Reset(f.Users[members[0]].Domains())
		for _, c := range members {
			u.Include(f.Users[c])
		}
		u.current = true
	}
	return &u.Union
}

// staleScreen marks cluster li's union for a rebuild: a member's relation
// or the membership changed.
func (f *FilterThenVerifySW) staleScreen(li int) { f.unions[li].current = false }

// verifyMembers runs the per-user tier for o_in, which passed cluster
// ui's filter and is in P_U, and appends the members whose frontier it
// joins to co: one screened pass over P_U (screenArrival), then each
// member walks the near list instead of its frontier (verifyNear).
func (f *FilterThenVerifySW) verifyMembers(ui int, oin object.Object, co []int) []int {
	f.screenArrival(ui, oin)
	for _, c := range f.Clusters[ui].Members {
		if f.verifyNear(ui, c, oin) {
			co = append(co, c)
		}
	}
	return co
}

// screenArrival fills near with the positions of the P_U entries that
// some member of cluster ui could order against o_in, itself excluded.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) screenArrival(ui int, oin object.Object) {
	var up pref.UnionProbe
	f.screen(ui).Prepare(oin, &up)
	fu := f.ClusterFronts[ui]
	f.near = f.near[:0]
	for i := 0; i < fu.Len(); i++ {
		if o := fu.At(i); o.ID != oin.ID && up.Mask(o) != 0 {
			f.near = append(f.near, int32(i))
		}
	}
	f.Ctr.AddVerify(fu.Len() - 1)
}

// verifyNear is Alg. 5's per-user tier for o_in over the near list
// instead of P_c: P_c ⊆ P_U, and an entry off the list is incomparable
// with o_in for every member, so c meets exactly the near entries it holds
// (a bit test each) and prepares o_in only if it meets one. The order it meets them in cannot change what it
// evicts or its verdict: o_in dominating one entry of the antichain P_c
// while another dominates it, or equals it, would make the two entries
// comparable.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) verifyNear(ui, c int, oin object.Object) bool {
	fu, fc := f.ClusterFronts[ui], f.UserFronts[c]
	var po pref.Probe
	prepared := false
scan:
	for _, i := range f.near {
		op := fu.At(int(i))
		if !f.Holds(op.ID, c) {
			continue
		}
		if !prepared {
			f.Users[c].Prepare(oin, &po)
			prepared = true
		}
		f.Ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			fc.Remove(op.ID)
			f.RemoveTarget(op.ID, c)
		case pref.Right:
			return false
		case pref.Identical:
			break scan
		}
	}
	fc.Add(oin)
	f.AddTarget(oin.ID, c)
	return true
}

// holders counts the members of cluster ui whose frontier holds id, up to
// two: whether a departure's member tier is shared.
func (f *FilterThenVerifySW) holders(ui, id int) int {
	n := 0
	for _, c := range f.Clusters[ui].Members {
		if f.Holds(id, c) {
			if n++; n == 2 {
				break
			}
		}
	}
	return n
}

// lemmaList is one departure candidate's Lemma 4.6 scan, screened as far
// as some member has needed it and shared by all: doms holds the P_U
// positions below next that could dominate the candidate for some member,
// in P_U order.
type lemmaList struct {
	next int32
	doms []int32
}

// screenDeparture fills near with the positions of the P_U entries o_out
// could dominate for some member of cluster ui — the only candidates any
// holder can promote — and empties a Lemma 4.6 list for each, keeping
// their storage.
//
//paretomon:hotpath
func (f *FilterThenVerifySW) screenDeparture(ui int, out object.Object) {
	var up pref.UnionProbe
	f.screen(ui).Prepare(out, &up)
	fu := f.ClusterFronts[ui]
	f.near = f.near[:0]
	for i := 0; i < fu.Len(); i++ {
		if up.Mask(fu.At(i))&order.RelLeft != 0 {
			f.near = append(f.near, int32(i))
		}
	}
	f.Ctr.AddVerify(fu.Len())
	f.lemma = f.lemma[:cap(f.lemma)]
	for len(f.lemma) < len(f.near) {
		f.lemma = append(f.lemma, lemmaList{})
	}
	f.lemma = f.lemma[:len(f.near)]
	for i := range f.lemma {
		f.lemma[i].next, f.lemma[i].doms = 0, f.lemma[i].doms[:0]
	}
}

// undominatedNear is core.ClusterShard.Undominated for o, the k-th candidate of the current
// screened departure. A member first walks what earlier members screened
// of P_U for o — only the entries that could dominate o for someone — and
// extends the screen, one union probe an entry, only if it has not met a
// dominator by the end of it: P_U is screened for o at most once per
// departure, and only as far as the member that looked furthest.
func (f *FilterThenVerifySW) undominatedNear(ui, c int, o object.Object, k int) bool {
	fu, l := f.ClusterFronts[ui], &f.lemma[k]
	var po pref.Probe
	f.Users[c].Prepare(o, &po)
	for _, i := range l.doms {
		f.Ctr.AddVerify(1)
		if po.DominatedBy(fu.At(int(i))) {
			return false
		}
	}
	var up pref.UnionProbe
	f.screen(ui).Prepare(o, &up)
	for int(l.next) < fu.Len() {
		i := l.next
		l.next++
		op := fu.At(int(i))
		if op.ID == o.ID {
			continue
		}
		f.Ctr.AddVerify(1)
		if up.Mask(op)&order.RelRight == 0 {
			continue
		}
		l.doms = append(l.doms, i)
		f.Ctr.AddVerify(1)
		if po.DominatedBy(op) {
			return false
		}
	}
	return true
}
