package core

import (
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
	ClusterShard
}

// NewFilterThenVerify builds the standalone engine. Every user must belong
// to exactly one cluster; the constructor panics otherwise.
func NewFilterThenVerify(users []*pref.Profile, clusters []Cluster, ctr *stats.Counters) *FilterThenVerify {
	return &FilterThenVerify{AllClusters(users, clusters, ctr)}
}

// Process implements Alg. 2: filter per cluster, then verify per member.
// Clusters whose last member was removed are dormant and skipped.
func (f *FilterThenVerify) Process(o object.Object) []int {
	f.Ctr.AddProcessed()
	co := f.Scratch.Start()
	for ui := range f.Clusters {
		if len(f.Clusters[ui].Members) == 0 {
			continue
		}
		if f.updateClusterFrontier(ui, o) {
			for _, c := range f.Clusters[ui].Members {
				if f.verifyUser(c, o) {
					co = append(co, c)
				}
			}
		}
	}
	sort.Ints(co)
	f.Ctr.AddDelivered(len(co))
	return f.Scratch.Finish(co)
}

// updateClusterFrontier is Procedure updateParetoFrontierU(U, o) of Alg. 2.
// Comparisons here are the shared, filter-tier work.
func (f *FilterThenVerify) updateClusterFrontier(ui int, o object.Object) bool {
	cl := f.Clusters[ui]
	fu := f.ClusterFronts[ui]
	var po pref.Probe
	cl.Common.Prepare(o, &po)
	isPareto := true
scan:
	for i := 0; i < fu.Len(); {
		op := fu.At(i)
		f.Ctr.AddFilter(1)
		switch po.Compare(op) {
		case pref.Left:
			// o ≻_U o': o' leaves P_U and, per Lines 4-6, every member's
			// P_c (P_c ⊆ P_U is the engine's standing invariant).
			fu.Remove(op.ID)
			f.EvictFromMembers(ui, op.ID)
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
	fc := f.UserFronts[c]
	var po pref.Probe
	f.Users[c].Prepare(o, &po)
	isPareto := true
scan:
	for i := 0; i < fc.Len(); {
		op := fc.At(i)
		f.Ctr.AddVerify(1)
		switch po.Compare(op) {
		case pref.Left:
			fc.Remove(op.ID)
			f.RemoveTarget(op.ID, c)
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
		f.AddTarget(o.ID, c)
	}
	return isPareto
}
