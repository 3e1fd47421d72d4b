package core

import (
	"fmt"
	"sort"

	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// Cluster groups users who share computation: Members are user indices and
// Common is the virtual user U — the common preference relation ≻_U of
// Def. 4.1 for FilterThenVerify, or the approximate relation ≻̂_U of
// Def. 6.1 for FilterThenVerifyApprox.
type Cluster struct {
	Members []int
	Common  *pref.Profile
}

// FilterThenVerify is Alg. 2. Per cluster it maintains a filter frontier
// P_U under the cluster's common preferences; an arriving object is
// compared per user only if it survives the filter (Theorem 4.5 guarantees
// the filter discards only true negatives). With approximate common
// relations the same engine computes P̂_U ⊇ P̂_c and becomes
// FilterThenVerifyApprox, trading exactness (Sec. 6.2's false negatives /
// positives) for larger clusters.
type FilterThenVerify struct {
	users         []*pref.Profile
	clusters      []Cluster
	clusterFronts []*Frontier // P_U per cluster
	userFronts    []*Frontier // P_c per user
	targets       *targetTracker
	ctr           *stats.Counters
	scratch       ResultScratch

	// commonFn recomputes a cluster's common relation when membership or
	// member preferences change online; nil means pref.Common (the exact
	// engines). The monitor wires approx.Profile for the approximate one.
	commonFn CommonFn

	// globalIdx maps local cluster indices to the monitor's full cluster
	// list and total is that list's length; both are set only for shard
	// instances, whose clusters field is a round-robin subset. State
	// capture uses them to key per-cluster state shard-independently.
	globalIdx []int
	total     int
}

// ValidatePartition panics unless cluster membership partitions the user
// set exactly — a missed user would silently never receive objects. All
// filter-then-verify constructors (sequential, sharded, windowed) run it
// before building frontiers.
func ValidatePartition(users []*pref.Profile, clusters []Cluster) {
	seen := make([]bool, len(users))
	for _, cl := range clusters {
		for _, c := range cl.Members {
			if c < 0 || c >= len(users) || seen[c] {
				panic("core: cluster membership must partition the user set")
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("core: user %d not covered by any cluster", c))
		}
	}
}

// NewFilterThenVerifyFor builds the engine over a cluster list that need
// not cover every user: removed users belong to no cluster and dormant
// (memberless) clusters are carried as placeholders so cluster indices
// stay stable. Recovery of an evolved community uses it; fresh monitors
// use NewFilterThenVerify, which insists on a full partition.
func NewFilterThenVerifyFor(users []*pref.Profile, clusters []Cluster, ctr *stats.Counters) *FilterThenVerify {
	return newShard(users, clusters, nil, len(clusters), ctr)
}

// NewFilterThenVerify builds the engine. Every user must belong to exactly
// one cluster; the constructor panics otherwise.
func NewFilterThenVerify(users []*pref.Profile, clusters []Cluster, ctr *stats.Counters) *FilterThenVerify {
	ValidatePartition(users, clusters)
	f := &FilterThenVerify{
		users:         users,
		clusters:      clusters,
		clusterFronts: make([]*Frontier, len(clusters)),
		userFronts:    make([]*Frontier, len(users)),
		targets:       newTargetTracker(),
		ctr:           ctr,
	}
	for i := range f.clusterFronts {
		f.clusterFronts[i] = NewFrontier()
	}
	for i := range f.userFronts {
		f.userFronts[i] = NewFrontier()
	}
	return f
}

// Process implements Alg. 2: filter per cluster, then verify per member.
// Clusters whose last member was removed are dormant and skipped.
func (f *FilterThenVerify) Process(o object.Object) []int {
	f.ctr.AddProcessed()
	co := f.scratch.Start()
	for ui := range f.clusters {
		if len(f.clusters[ui].Members) == 0 {
			continue
		}
		if f.updateClusterFrontier(ui, o) {
			for _, c := range f.clusters[ui].Members {
				if f.verifyUser(c, o) {
					co = append(co, c)
				}
			}
		}
	}
	sort.Ints(co)
	f.ctr.AddDelivered(len(co))
	return f.scratch.Finish(co)
}

// EnableScratch switches Process to a reused result slice; only the
// sharded harness (which copies results out) enables it.
func (f *FilterThenVerify) EnableScratch() { f.scratch.Enable() }

// updateClusterFrontier is Procedure updateParetoFrontierU(U, o) of Alg. 2.
// Comparisons here are the shared, filter-tier work.
func (f *FilterThenVerify) updateClusterFrontier(ui int, o object.Object) bool {
	cl := f.clusters[ui]
	fu := f.clusterFronts[ui]
	var po pref.Probe
	cl.Common.Prepare(o, &po)
	isPareto := true
scan:
	for i := 0; i < fu.Len(); {
		op := fu.At(i)
		f.ctr.AddFilter(1)
		switch po.Compare(op) {
		case pref.Left:
			// o ≻_U o': o' leaves P_U and, per Lines 4-6, every member's
			// P_c (P_c ⊆ P_U is the engine's standing invariant).
			fu.Remove(op.ID)
			for _, c := range cl.Members {
				if f.userFronts[c].Remove(op.ID) {
					f.targets.remove(op.ID, c)
				}
			}
		case pref.Right:
			// o'≻_U o: by Theorem 4.5 o is outside every member's frontier.
			isPareto = false
			break scan
		case pref.Identical:
			// o' = o: o is Pareto-optimal in P_U, and anything o would
			// remove was already removed when its twin arrived. Alg. 2's
			// pseudocode omits this case; we adopt Alg. 1's identical
			// short-circuit, which matters on catalogs with duplicate
			// attribute combinations.
			break scan
		default: // Incomparable: keep scanning
			i++
		}
	}
	if isPareto {
		fu.Add(o)
	}
	return isPareto
}

// verifyUser discerns the "false positives" of the filter tier for one
// member (Alg. 2 Line 6 → Alg. 1's updateParetoFrontier against P_c).
func (f *FilterThenVerify) verifyUser(c int, o object.Object) bool {
	fc := f.userFronts[c]
	var po pref.Probe
	f.users[c].Prepare(o, &po)
	isPareto := true
scan:
	for i := 0; i < fc.Len(); {
		op := fc.At(i)
		f.ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			fc.Remove(op.ID)
			f.targets.remove(op.ID, c)
		case pref.Right:
			isPareto = false
			break scan
		case pref.Identical:
			break scan
		default:
			i++
		}
	}
	if isPareto {
		fc.Add(o)
		f.targets.add(o.ID, c)
	}
	return isPareto
}

// UserFrontier returns P_c (P̂_c under approximate relations) as object ids.
func (f *FilterThenVerify) UserFrontier(c int) []int { return f.userFronts[c].IDs() }

// ClusterFrontier returns P_U (P̂_U) of cluster ui as object ids.
func (f *FilterThenVerify) ClusterFrontier(ui int) []int { return f.clusterFronts[ui].IDs() }

// Targets returns the current C_o of a previously processed object.
func (f *FilterThenVerify) Targets(objID int) []int { return f.targets.users(objID) }

// Clusters returns the engine's cluster configuration.
func (f *FilterThenVerify) Clusters() []Cluster { return f.clusters }
