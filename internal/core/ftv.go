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
	ClusterShard
}

// NewFilterThenVerify builds the standalone exact engine. Every user must
// belong to exactly one cluster, and every cluster relation must be
// subsumed by its members' (≻_U ⊆ ≻_c: the exact intersection of Def. 4.1
// or any subset of it); the constructor panics otherwise. Clusters with
// approximate relations go through NewFilterThenVerifyPerObject.
func NewFilterThenVerify(users []*pref.Profile, clusters []Cluster, ctr *stats.Counters) *FilterThenVerify {
	s := AllClusters(users, clusters, ctr)
	if err := checkSubsumed(users, clusters); err != nil {
		panic(err.Error())
	}
	return newFilterThenVerify(s)
}

// NewFilterThenVerifyPerObject builds the standalone engine with every
// object its own frontier member: Alg. 2 as published. Approximate common
// relations (Sec. 6.2) require it — P̂_c is what the procedure leaves, not
// a set the attribute values determine: a member evicted from P̂_U under a
// pair of ≻̂_U that is not in ≻_c can leave a twin outside P̂_c that a
// later copy's scan would admit, so tuple classes would change the output
// — and internal/experiments runs the exact engine this way too, for the
// paper's figures.
func NewFilterThenVerifyPerObject(users []*pref.Profile, clusters []Cluster, ctr *stats.Counters) *FilterThenVerify {
	return &FilterThenVerify{AllClusters(users, clusters, ctr)}
}

// newFilterThenVerify wraps one shard's bookkeeping into the exact engine,
// whose frontier members are tuple classes (see TupleClasses). The caller
// has run checkSubsumed over the shard's clusters.
func newFilterThenVerify(s ClusterShard) *FilterThenVerify {
	s.enable()
	return &FilterThenVerify{s}
}

// checkSubsumed reports the first cluster whose common relation some
// member's does not subsume. ≻_U ⊆ ≻_c is what makes P_U ⊇ P_c exact sets
// the attribute values determine (Theorem 4.5), i.e. what tuple classes
// rest on; membership is taken as already validated.
func checkSubsumed(users []*pref.Profile, clusters []Cluster) error {
	for i, cl := range clusters {
		if c := unsubsumed(users, cl); c >= 0 {
			return fmt.Errorf("core: cluster %d's common relation is not subsumed by user %d's: "+
				"an approximate relation needs the per-object engine", i, c)
		}
	}
	return nil
}

// unsubsumed returns the first member of cl whose relation does not
// subsume cl.Common, or -1.
func unsubsumed(users []*pref.Profile, cl Cluster) int {
	for _, c := range cl.Members {
		if !users[c].Subsumes(cl.Common) {
			return c
		}
	}
	return -1
}

// Process implements Alg. 2: filter per cluster, then verify per member.
// Clusters whose last member was removed are dormant and skipped. An
// arrival whose tuple is already alive (exact engine only) joins exactly
// the frontiers its class is in: C_o is C_class, with no filter and no
// verify comparison.
func (f *FilterThenVerify) Process(o object.Object) []int {
	f.Ctr.AddProcessed()
	co := f.Scratch.Start()
	rep, twin := f.Resolve(o)
	if twin {
		f.Ctr.AddTwin()
		co = f.AppendHolders(co, rep.ID)
	} else {
		for ui := range f.Clusters {
			if len(f.Clusters[ui].Members) == 0 {
				continue
			}
			if f.updateClusterFrontier(ui, rep) {
				for _, c := range f.Clusters[ui].Members {
					if f.verifyUser(c, rep) {
						co = append(co, c)
					}
				}
			}
		}
		sort.Ints(co)
	}
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
			// attribute combinations. Only the approximate engine still
			// gets here: the exact one resolves a twin before any scan.
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
