package core

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// Every engine instance is a shard with explicit membership: it indexes
// the full, shared user table but owns frontiers only for the users (or
// the clusters' members) it maintains. A standalone engine — the bare
// constructors the paper's figures and the test oracles use — is the
// one-shard case owning everyone. The bookkeeping that does not depend on
// the algorithm lives here, once: UserShard under Baseline and
// window.BaselineSW, ClusterShard under FilterThenVerify and
// window.FilterThenVerifySW. The engines embed one and add their
// algorithms (and, under a window, the ring and buffers).

// MemberIndex is what both shard kinds keep about frontier members apart
// from the frontiers themselves: C_key per member (TargetTracker) and the
// tuple-class table that maps an object id to its member's key
// (TupleClasses; off, every id is its own key).
type MemberIndex struct {
	TargetTracker
	TupleClasses
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

// UserShard is the bookkeeping of an engine with per-user frontiers and
// no shared tier.
type UserShard struct {
	MemberIndex
	Users   []*pref.Profile // full user table, shared across shards
	Fronts  []*Frontier     // P_c per user; nil outside Members
	Members []int           // users this instance maintains, ascending
	Ctr     *stats.Counters // this instance's work counter; may be nil
	Scratch ResultScratch
}

// NewUserShard builds the bookkeeping for the given members (ascending
// user indices) with empty frontiers.
func NewUserShard(users []*pref.Profile, members []int, ctr *stats.Counters) UserShard {
	s := UserShard{Users: users, Fronts: make([]*Frontier, len(users)), Members: members, Ctr: ctr}
	for _, c := range members {
		s.Fronts[c] = NewFrontier()
	}
	return s
}

// AllUsers is the one-shard case: every user is a member.
func AllUsers(users []*pref.Profile, ctr *stats.Counters) UserShard {
	members := make([]int, len(users))
	for c := range members {
		members[c] = c
	}
	return NewUserShard(users, members, ctr)
}

// EnableScratch switches Process to a reused result slice; only the
// sharded harness (which copies results out) enables it.
func (s *UserShard) EnableScratch() { s.Scratch.Enable() }

// UserFrontier returns P_c as object ids.
func (s *UserShard) UserFrontier(c int) []int { return s.AppendMemberIDs(nil, s.Fronts[c]) }

// SetClusterTotal is a no-op: there is no cluster tier.
func (s *UserShard) SetClusterTotal(int) {}

// SetCommonFn is a no-op: there are no cluster relations.
func (s *UserShard) SetCommonFn(CommonFn) {}

// FastForward is a no-op: an append-only engine ages nothing.
func (s *UserShard) FastForward(int) {}

// RegisterUser appends profile p as user c. The slot stays frontierless
// until the owning shard activates it.
func (s *UserShard) RegisterUser(c int, p *pref.Profile) {
	if c != len(s.Users) {
		panic("core: RegisterUser out of order")
	}
	s.Users = append(s.Users, p)
	s.Fronts = append(s.Fronts, nil)
}

// Activate makes user c a member with an empty frontier.
func (s *UserShard) Activate(c int) {
	s.Members = append(s.Members, c)
	s.Fronts[c] = NewFrontier()
}

// DeactivateUser blanks user c's slot without mending (recovery path).
func (s *UserShard) DeactivateUser(c int) {
	s.Fronts[c] = nil
	for i, m := range s.Members {
		if m == c {
			s.Members = append(s.Members[:i], s.Members[i+1:]...)
			return
		}
	}
}

// RemoveUser drops user c's frontier and target entries; a no-op on the
// shards that do not maintain c.
func (s *UserShard) RemoveUser(c int, _ *pref.Profile, _ []object.Object) {
	if s.Fronts[c] == nil {
		return
	}
	for _, id := range s.Fronts[c].IDs() {
		s.RemoveTarget(id, c)
	}
	s.DeactivateUser(c)
}

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
	// shard layout.
	globalIdx []int
	total     int

	// commonFn recomputes a cluster's common relation when membership or
	// member preferences change online; nil means pref.Common (the exact
	// engines). The monitor wires approx.Profile for the approximate one.
	commonFn CommonFn
}

// NewClusterShard builds the bookkeeping for a subset of the monitor's
// cluster list (globalIdx[i] is clusters[i]'s index in the full list of
// total entries) with empty frontiers. It does not validate membership;
// see ValidatePartition.
func NewClusterShard(users []*pref.Profile, clusters []Cluster, globalIdx []int, total int, ctr *stats.Counters) ClusterShard {
	s := ClusterShard{
		Users:         users,
		Clusters:      clusters,
		ClusterFronts: make([]*Frontier, len(clusters)),
		UserFronts:    make([]*Frontier, len(users)),
		Ctr:           ctr,
		globalIdx:     globalIdx,
		total:         total,
	}
	for i, cl := range clusters {
		s.ClusterFronts[i] = NewFrontier()
		for _, c := range cl.Members {
			s.UserFronts[c] = NewFrontier()
		}
	}
	return s
}

// AllClusters is the one-shard case: the instance maintains the whole
// cluster list. Every user must belong to exactly one cluster; it panics
// otherwise (standalone engines are built from code, not stored input).
func AllClusters(users []*pref.Profile, clusters []Cluster, ctr *stats.Counters) ClusterShard {
	if err := ValidatePartition(len(users), clusters, nil); err != nil {
		panic(err.Error())
	}
	idx := make([]int, len(clusters))
	for i := range idx {
		idx[i] = i
	}
	return NewClusterShard(users, clusters, idx, len(clusters), ctr)
}

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

// SetCommonFn installs the cluster-relation recompute used by online
// preference updates (the monitor wires approx.Profile for the
// approximate engine).
func (s *ClusterShard) SetCommonFn(fn CommonFn) { s.commonFn = fn }

// FastForward is a no-op: an append-only engine ages nothing.
func (s *ClusterShard) FastForward(int) {}

// setCommon installs cluster li's recomputed common relation. A shard
// whose frontier members are tuple classes can only serve under a relation
// every member's subsumes (see checkSubsumed); handed another — an
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

// ClusterTotal is the length of the monitor's full cluster list.
func (s *ClusterShard) ClusterTotal() int { return s.total }

// GlobalIndex maps a local cluster index to its index in the monitor's
// full cluster list.
func (s *ClusterShard) GlobalIndex(li int) int { return s.globalIdx[li] }

// LocalCluster maps a monitor-global cluster index to this instance's
// local list, or -1 if it maintains no such cluster.
func (s *ClusterShard) LocalCluster(cluster int) int {
	for li, gi := range s.globalIdx {
		if gi == cluster {
			return li
		}
	}
	return -1
}

// ClusterOf locates the (local) cluster containing user c.
func (s *ClusterShard) ClusterOf(c int) int {
	for li, cl := range s.Clusters {
		for _, m := range cl.Members {
			if m == c {
				return li
			}
		}
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
}

// DeactivateUser blanks user c's slot without mending (recovery path).
func (s *ClusterShard) DeactivateUser(c int) { s.UserFronts[c] = nil }

// Found appends a new singleton cluster {c}, monitor-global index
// cluster, with an empty filter frontier, and returns its local index.
func (s *ClusterShard) Found(cluster, c int, common *pref.Profile) int {
	s.Clusters = append(s.Clusters, Cluster{Members: []int{c}})
	s.ClusterFronts = append(s.ClusterFronts, NewFrontier())
	s.globalIdx = append(s.globalIdx, cluster)
	s.SetClusterTotal(cluster + 1)
	li := len(s.Clusters) - 1
	s.setCommon(li, common)
	return li
}

// DropMember takes user c out of its cluster: c leaves the member list,
// its frontier and target entries disappear. It returns the cluster's
// local index and whether the cluster emptied — an emptied cluster goes
// dormant (no relation, a fresh empty filter frontier; Process skips it).
func (s *ClusterShard) DropMember(c int) (li int, emptied bool) {
	li = s.ClusterOf(c)
	cl := &s.Clusters[li]
	for i, m := range cl.Members {
		if m == c {
			cl.Members = append(cl.Members[:i], cl.Members[i+1:]...)
			break
		}
	}
	for _, id := range s.UserFronts[c].IDs() {
		s.RemoveTarget(id, c)
	}
	s.UserFronts[c] = nil
	if len(cl.Members) > 0 {
		return li, false
	}
	cl.Common = nil
	s.ClusterFronts[li] = NewFrontier()
	return li, true
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
	FilterFrontier(s.ClusterFronts[li], s.Clusters[li].Common, s.Ctr.AddFilter, func(id int) {
		s.EvictFromMembers(li, id)
	})
}
