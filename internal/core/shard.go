package core

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// Every engine instance is a shard with explicit membership: it indexes
// the full, shared user table but owns frontiers only for the clusters'
// members it maintains. A standalone engine — the bare constructors the
// paper's figures and the test oracles use — is the one-shard case owning
// everyone. The bookkeeping that does not depend on the algorithm lives
// here, once, in ClusterShard, under FilterThenVerify and
// window.FilterThenVerifySW; the engines embed it and add their
// algorithms (and, under a window, the buffers).
//
// Baseline (Algs. 1 and 4) is the same shard over one-user clusters. For
// a cluster of one, Def. 4.1 gives ≻_U = ≻_c and so P_U = P_c: an own
// cluster (ClusterShard.Own) keeps its member's profile as its relation
// and its member's frontier as its filter frontier — one *Frontier under
// both names — and the engines run one tier for it, counted as verify
// work, where a shared cluster runs two.

// MemberIndex is what a shard keeps about frontier members apart from
// the frontiers themselves: C_key per member (TargetTracker) and the
// tuple-class table that maps an object id to its member's key
// (TupleClasses; off, every id is its own key) — and where the alive
// objects are.
type MemberIndex struct {
	TargetTracker
	TupleClasses

	// source yields every alive object in arrival order: the owner's
	// registry, fixed at construction (NewSharded, window.NewSharded) —
	// under a window, the objects in the window not removed. It is the
	// candidate set of every mend and replay, of both families, and
	// arrival order is part of the contract — scan order after a mend,
	// and with it every later comparison count, follows it.
	source iter.Seq[object.Object]
}

// alive returns the engine's alive-object source; an engine built
// without one cannot serve a lifecycle call or (append-only) a restore,
// and says so.
func (m *MemberIndex) alive() iter.Seq[object.Object] {
	if m.source == nil {
		panic("core: engine built without an alive-object source (NewSharded's alive argument): " +
			"lifecycle calls and RestoreState read the alive objects from it")
	}
	return m.source
}

// Collapsed is the alive objects, one representative per tuple class in
// arrival order of the oldest member: what a mend scans (Collapse's
// scratch, valid until the next call). With the table off — the windowed
// engines — it is the alive objects themselves.
func (m *MemberIndex) Collapsed() []object.Object { return m.Collapse(m.alive()) }

// resolveAlive registers every alive object in the class table before a
// restore: a captured state names frontier members only, and the
// dominated tuples must be back in the table for the engine to go on
// answering twins — and counting comparisons — exactly like an
// uninterrupted one. With the table off there is nothing to register.
func (m *MemberIndex) resolveAlive() {
	if !m.on {
		return
	}
	for o := range m.alive() {
		m.Resolve(o)
	}
}

// AppendTargets appends the current C_o of a previously processed object
// — the users of this instance for whom it is still Pareto-optimal — to
// dst in ascending order.
func (m *MemberIndex) AppendTargets(dst []int, objID int) []int {
	if key, ok := m.classOf(objID); ok {
		dst = m.AppendHolders(dst, key)
	}
	return dst
}

// Targets returns AppendTargets as a fresh slice, nil if empty.
func (m *MemberIndex) Targets(objID int) []int { return m.AppendTargets(nil, objID) }

// ClusterShard is the bookkeeping of a filter-then-verify engine: the
// clusters it maintains, each with its filter frontier P_U, and their
// members' frontiers P_c.
type ClusterShard struct {
	MemberIndex
	Users         []*pref.Profile // full user table, shared across shards
	Clusters      []Cluster       // the clusters this instance maintains
	ClusterFronts []*Frontier     // P_U per maintained cluster
	UserFronts    []*Frontier     // P_c per user; nil outside the maintained clusters
	Ctr           *stats.Counters // this instance's work counter; may be nil
	Scratch       ResultScratch

	// globalIdx maps each maintained cluster to its index in the monitor's
	// full cluster list, of which total is the length: state capture keys
	// per-cluster state by the global index, so it restores under any
	// shard layout. An own cluster has none (-1).
	globalIdx []int
	total     int

	// commonFn recomputes a cluster's common relation whenever its
	// membership or a member's relation changes; nil means pref.Common
	// (the exact engines). The monitor wires approx.Profile for the
	// approximate one.
	commonFn CommonFn

	// tables[li] is cluster li's member table (membertable.go); home[c]
	// and slot[c] place user c in it: its local cluster (-1 outside the
	// maintained clusters) and its member slot. holding says whether C_o
	// writes are mirrored into the tables' holder words, and tier is the
	// windowed member tier's scratch.
	tables  []memberTable
	home    []int32
	slot    []int32
	holding bool
	tier    memberTier
}

// newClusterShard builds the bookkeeping for a subset of the monitor's
// cluster list (globalIdx[i] is clusters[i]'s index in the full list of
// total entries, -1 for an own cluster) with empty frontiers, reading the
// alive objects from alive (see MemberIndex.source). It does not validate
// membership; see ValidatePartition.
func newClusterShard(users []*pref.Profile, clusters []Cluster, globalIdx []int, total int, alive iter.Seq[object.Object], ctr *stats.Counters) ClusterShard {
	s := ClusterShard{
		MemberIndex:   MemberIndex{source: alive},
		Users:         users,
		Clusters:      clusters,
		ClusterFronts: make([]*Frontier, len(clusters)),
		UserFronts:    make([]*Frontier, len(users)),
		Ctr:           ctr,
		globalIdx:     globalIdx,
		total:         total,
		tables:        make([]memberTable, len(clusters)),
		home:          slices.Repeat([]int32{-1}, len(users)),
		slot:          slices.Repeat([]int32{-1}, len(users)),
	}
	for i, cl := range clusters {
		s.ClusterFronts[i] = NewFrontier()
		s.tables[i].users = slices.Clone(cl.Members)
		s.tables[i].words = wordsFor(len(cl.Members))
		for m, c := range cl.Members {
			s.UserFronts[c] = s.memberFront(i)
			s.home[c], s.slot[c] = int32(i), int32(m)
		}
	}
	return s
}

// AllClusters is the one-shard case: the instance maintains the whole
// cluster list — every user a cluster of its own when clusters is nil
// (Baseline). Every user must belong to exactly one cluster; it panics
// otherwise (standalone engines are built from code, not stored input).
// The standalone constructors pass a nil alive: they serve Process only.
func AllClusters(users []*pref.Profile, clusters []Cluster, alive iter.Seq[object.Object], ctr *stats.Counters) ClusterShard {
	clusters, idx, total := layout(users, clusters, nil)
	if err := ValidatePartition(len(users), clusters, nil); err != nil {
		panic(err.Error())
	}
	return newClusterShard(users, clusters, idx, total, alive, ctr)
}

// layout reads a community for the shards: the clusters with their
// indices in the monitor's cluster list and its length — or, when
// clusters is nil, Alg. 1's community, every user slot a cluster of its
// own (dormant when active marks the user removed) with no index and an
// empty list.
func layout(users []*pref.Profile, clusters []Cluster, active []bool) ([]Cluster, []int, int) {
	if clusters != nil {
		idx := make([]int, len(clusters))
		for i := range idx {
			idx[i] = i
		}
		return clusters, idx, len(clusters)
	}
	own, idx := make([]Cluster, len(users)), make([]int, len(users))
	for c, p := range users {
		idx[c] = -1
		if active == nil || active[c] {
			own[c] = Cluster{Members: []int{c}, Common: p}
		}
	}
	return own, idx, 0
}

// Own reports whether cluster li is a cluster of its own: one user's,
// under Baseline. Its relation is the user's profile, its filter frontier
// is the user's frontier, and it has no index in the monitor's cluster
// list and no slot in a captured state.
func (s *ClusterShard) Own(li int) bool { return s.globalIdx[li] < 0 }

// memberFront is the frontier a member of cluster li starts from: a fresh
// one, or the cluster's own filter frontier when P_U is P_c.
func (s *ClusterShard) memberFront(li int) *Frontier {
	if s.Own(li) {
		return s.ClusterFronts[li]
	}
	return NewFrontier()
}

// CountTier counts n comparisons of cluster li's filter tier: filter
// work, or verify work on a cluster of its own, whose one tier is its
// member's.
func (s *ClusterShard) CountTier(li, n int) {
	if s.Own(li) {
		s.Ctr.AddVerify(n)
	} else {
		s.Ctr.AddFilter(n)
	}
}

// tierCount is CountTier as the counter the repairs take.
func (s *ClusterShard) tierCount(li int) func(int) { return func(n int) { s.CountTier(li, n) } }

// ValidatePartition checks that cluster membership partitions exactly the
// active users (active == nil: every user) — a missed user would silently
// never receive objects, and would own no frontier to read. Removed users
// belong to no cluster; memberless (dormant) clusters are allowed.
func ValidatePartition(users int, clusters []Cluster, active []bool) error {
	seen := make([]bool, users)
	for _, cl := range clusters {
		for _, c := range cl.Members {
			if c < 0 || c >= users || seen[c] || (active != nil && !active[c]) {
				return fmt.Errorf("core: cluster membership must partition the user set (user %d)", c)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok && (active == nil || active[c]) {
			return fmt.Errorf("core: user %d not covered by any cluster", c)
		}
	}
	return nil
}

// EnableScratch switches Process to a reused result slice; only the
// sharded harness (which copies results out) enables it.
func (s *ClusterShard) EnableScratch() { s.Scratch.Enable() }

// UserFrontier returns P_c (P̂_c under approximate relations) as object ids.
func (s *ClusterShard) UserFrontier(c int) []int { return s.AppendMemberIDs(nil, s.UserFronts[c]) }

// ClusterFrontier returns P_U (P̂_U) of the instance's cluster ui as
// object ids.
func (s *ClusterShard) ClusterFrontier(ui int) []int {
	return s.AppendMemberIDs(nil, s.ClusterFronts[ui])
}

// CommonOf recomputes a cluster relation from member profiles through
// the configured CommonFn (exact intersection by default).
func (s *ClusterShard) CommonOf(members []int) *pref.Profile {
	ps := make([]*pref.Profile, len(members))
	for i, m := range members {
		ps[i] = s.Users[m]
	}
	if s.commonFn != nil {
		return s.commonFn(ps)
	}
	return pref.Common(ps)
}

// SetCommonFn installs the cluster-relation recompute every lifecycle
// call and preference update runs (the monitor wires approx.Profile for
// the approximate engine).
func (s *ClusterShard) SetCommonFn(fn CommonFn) { s.commonFn = fn }

// FastForward is a no-op: an append-only engine expires nothing.
func (s *ClusterShard) FastForward(int) {}

// setCommon installs cluster li's recomputed common relation. A shard
// whose frontier members are tuple classes can only serve under a relation
// every member's subsumes (see CheckSubsumed); handed another — an
// approximate CommonFn wired to an exact engine — it panics rather than
// serve different frontiers silently.
func (s *ClusterShard) setCommon(li int, common *pref.Profile) {
	cl := &s.Clusters[li]
	cl.Common = common
	if !s.on {
		return
	}
	if c := unsubsumed(s.Users, *cl); c >= 0 {
		panic(fmt.Sprintf("core: cluster %d's recomputed common relation is not subsumed by user %d's "+
			"on an engine keyed by tuple class", s.globalIdx[li], c))
	}
}

// SetClusterTotal grows the full-cluster-list length the instance keys
// its state against (another shard founded a cluster).
func (s *ClusterShard) SetClusterTotal(n int) {
	if n > s.total {
		s.total = n
	}
}

// GlobalIndex maps a local cluster index to its index in the monitor's
// full cluster list.
func (s *ClusterShard) GlobalIndex(li int) int { return s.globalIdx[li] }

// ClusterOf locates the (local) cluster containing user c.
func (s *ClusterShard) ClusterOf(c int) int {
	if li := s.home[c]; li >= 0 {
		return int(li)
	}
	panic(fmt.Sprintf("core: user %d not in any cluster", c))
}

// RegisterUser appends profile p as user c (no frontier yet).
func (s *ClusterShard) RegisterUser(c int, p *pref.Profile) {
	if c != len(s.Users) {
		panic("core: RegisterUser out of order")
	}
	s.Users = append(s.Users, p)
	s.UserFronts = append(s.UserFronts, nil)
	s.home = append(s.home, -1)
	s.slot = append(s.slot, -1)
}

// Resync brings cluster li's filter tier in line after its common
// relation moved from old to Clusters[li].Common. old is nil when the
// cluster was just founded or revived from dormancy; the new relation is
// nil when its last member left, and the cluster goes dormant (no
// relation, an empty filter frontier; Process skips it). Each
// filter-then-verify engine supplies its own; ClusterShard runs the rest
// of every lifecycle call (JoinCluster, LeaveCluster, RetractTuple,
// ApplyTuple).
type Resync func(li int, old *pref.Profile)

// JoinCluster is ActivateUser of a filter-then-verify engine: user c
// joins cluster (founding it when the index is new to the instance, and
// a cluster of its own when the index is negative), the cluster's
// relation is recomputed and resync repairs P_U, and c's frontier is
// built from P_U by the Lemma 4.6 criterion.
func (s *ClusterShard) JoinCluster(c, cluster int, resync Resync) {
	li := -1
	if cluster >= 0 {
		li = slices.Index(s.globalIdx, cluster)
	}
	if li < 0 {
		li = s.found(cluster)
	}
	s.home[c], s.slot[c] = int32(li), int32(s.tables[li].seat(s.Users, c))
	s.UserFronts[c] = s.memberFront(li)
	s.Clusters[li].Members = append(s.Clusters[li].Members, c)
	s.recommon(li, resync)
	s.mendMember(li, c)
}

// found appends a memberless cluster, monitor-global index cluster, with
// an empty filter frontier, and returns its local index.
func (s *ClusterShard) found(cluster int) int {
	s.Clusters = append(s.Clusters, Cluster{})
	s.ClusterFronts = append(s.ClusterFronts, NewFrontier())
	s.tables = append(s.tables, memberTable{})
	s.globalIdx = append(s.globalIdx, cluster)
	s.SetClusterTotal(cluster + 1)
	return len(s.Clusters) - 1
}

// LeaveCluster is RemoveUser of a filter-then-verify engine: user c leaves
// its cluster's member list (in place: the relation sees the members in
// the order the monitor keeps them), its frontier and target entries
// disappear, and the cluster's relation is recomputed and resynced.
func (s *ClusterShard) LeaveCluster(c int, resync Resync) {
	li := s.ClusterOf(c)
	cl := &s.Clusters[li]
	i := slices.Index(cl.Members, c)
	cl.Members = slices.Delete(cl.Members, i, i+1)
	for _, id := range s.UserFronts[c].IDs() {
		s.RemoveTarget(id, c)
	}
	// Its slot is free: its holder bits left with its frontier, and its
	// column, which nothing reads, is rewritten when the slot is seated.
	s.tables[li].users[s.slot[c]] = -1
	s.UserFronts[c] = nil
	s.home[c], s.slot[c] = -1, -1
	s.recommon(li, resync)
}

// RetractTuple is RetractPreference of a filter-then-verify engine: the
// asserted tuple leaves user c's shared profile, c's cluster's relation
// is recomputed and resynced, and c's frontier is mended from P_U. It
// fails, changing nothing, if c never asserted the tuple.
func (s *ClusterShard) RetractTuple(c, d, better, worse int, resync Resync) error {
	if err := s.Users[c].Relation(d).Remove(better, worse); err != nil {
		return err
	}
	li := s.ClusterOf(c)
	s.tables[li].refresh(s.Users, int(s.slot[c]), d)
	s.recommon(li, resync)
	s.mendMember(li, c)
	return nil
}

// ApplyTuple is ApplyPreference of a filter-then-verify engine: the tuple
// joins user c's shared profile, c's cluster's relation is recomputed and
// repair brings P_U in line, and c's own frontier is filtered pairwise
// under the grown ≻_c — exact, since a grown relation only adds dominance
// pairs (see update.go) — unless it is P_U, which repair has just brought
// in line. A tuple that would break the strict partial order fails and
// changes nothing.
func (s *ClusterShard) ApplyTuple(c, d, better, worse int, repair Resync) error {
	if c < 0 || c >= len(s.Users) {
		return fmt.Errorf("core: no user %d", c)
	}
	if err := s.Users[c].Relation(d).Add(better, worse); err != nil {
		return err
	}
	li := s.ClusterOf(c)
	s.tables[li].refresh(s.Users, int(s.slot[c]), d)
	s.recommon(li, repair)
	if s.Own(li) {
		return nil
	}
	dm := s.memberDominance(li, c)
	FilterFrontier(s.UserFronts[c], &dm, s.Ctr.AddVerify, func(id int) {
		s.RemoveTarget(id, c)
	})
	return nil
}

// recommon recomputes cluster li's relation from its members through the
// CommonFn — or retires it, when the last member left, or takes its
// member's profile, edited in place, on an own cluster — and hands the
// move to resync.
func (s *ClusterShard) recommon(li int, resync Resync) {
	cl := &s.Clusters[li]
	old := cl.Common
	switch {
	case len(cl.Members) == 0:
		cl.Common = nil
		s.ClusterFronts[li] = NewFrontier()
	case s.Own(li):
		cl.Common = s.Users[cl.Members[0]]
	default:
		s.setCommon(li, s.CommonOf(cl.Members))
	}
	resync(li, old)
}

// mendMember admits the filter-frontier objects user c's frontier lacks
// and no other filter-frontier member dominates under ≻_c (Lemma 4.6;
// exact whenever ≻_U ⊆ ≻_c). Over an empty frontier it builds P_c.
func (s *ClusterShard) mendMember(li, c int) {
	fc := s.UserFronts[c]
	for _, x := range s.ClusterFronts[li].Objects() {
		if !fc.Contains(x.ID) && s.Undominated(li, c, x) {
			fc.Add(x)
			s.AddTarget(x.ID, c)
		}
	}
}

// Undominated is the criterion of Lemma 4.6 for x ∈ P_U to belong to P_c:
// no other P_U member dominates it under ≻_c. Every test is a verify
// comparison. Scanning P_c alone would be wrong on a mend: x's per-user
// dominator may itself be a pending candidate (kept out of P_c by the
// object that just left), and P_U is not ordered so that dominators
// precede what they dominate.
func (s *ClusterShard) Undominated(li, c int, x object.Object) bool {
	fu := s.ClusterFronts[li]
	dm := s.memberDominance(li, c)
	dm.fix(x)
	for j := 0; j < fu.Len(); j++ {
		op := fu.At(j)
		if op.ID == x.ID {
			continue
		}
		s.Ctr.AddVerify(1)
		if dm.by(op) {
			return false
		}
	}
	return true
}

// EvictFromMembers takes object id, which just left cluster li's filter
// frontier, out of every member frontier holding it (P_c ⊆ P_U is the
// engine invariant). C_id names the holders, so members that never held
// it cost a bit test, not a frontier probe.
func (s *ClusterShard) EvictFromMembers(li, id int) {
	for _, c := range s.Clusters[li].Members {
		if s.Holds(id, c) {
			s.UserFronts[c].Remove(id)
			s.RemoveTarget(id, c)
		}
	}
}

// FilterClusterFrontier evicts filter-frontier members dominated under
// the (grown) common relation, propagating each eviction to the member
// frontiers.
func (s *ClusterShard) FilterClusterFrontier(li int) {
	FilterFrontier(s.ClusterFronts[li], &dominance{p: s.Clusters[li].Common}, s.tierCount(li), func(id int) {
		s.EvictFromMembers(li, id)
	})
}
