package core

import (
	"fmt"
	"math/bits"
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
// positives) for larger clusters. Over clusters of their own (NewBaseline)
// it is Alg. 1: P_U is P_c, and only the verify tier runs.
type FilterThenVerify struct {
	ClusterShard

	// postings[ui] indexes cluster ui's filter frontier by value, on the
	// exact engine only (postings.go); scan is the plan of the current
	// indexed scan, reused.
	postings []valuePostings
	scan     indexScan

	// The verify tier reads the member table of a shared cluster of at
	// least memberMin (memberTableMin; only benchmarks move it) members,
	// with memberScan as its scratch (membertable.go).
	memberScan memberScan
	memberMin  int
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
	return &FilterThenVerify{ClusterShard: AllClusters(users, clusters, ctr)}
}

// NewBaseline builds the standalone Alg. 1 engine: per-user frontier
// maintenance, every user a cluster of its own. ctr may be nil to skip
// accounting.
func NewBaseline(users []*pref.Profile, ctr *stats.Counters) *FilterThenVerify {
	return NewFilterThenVerify(users, nil, ctr)
}

// NewBaselinePerObject is NewBaseline with every object its own frontier
// member: Alg. 1 as published, which internal/experiments runs for the
// paper's figures. Frontiers and deliveries are NewBaseline's; only the
// comparison count differs on streams that repeat tuples.
func NewBaselinePerObject(users []*pref.Profile, ctr *stats.Counters) *FilterThenVerify {
	return NewFilterThenVerifyPerObject(users, nil, ctr)
}

// newFilterThenVerify wraps one shard's bookkeeping into the exact engine,
// whose frontier members are tuple classes (see TupleClasses). The caller
// has run checkSubsumed over the shard's clusters.
func newFilterThenVerify(s ClusterShard) *FilterThenVerify {
	s.enable()
	return &FilterThenVerify{ClusterShard: s, memberMin: memberTableMin}
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

// Process implements Alg. 2: filter per cluster, then verify per member —
// on a cluster of its own, Alg. 1's updateParetoFrontier alone, and on a
// cluster with a member table sharing each dominator a member's scan
// finds (verifyMembers). Clusters whose last member was removed are
// dormant and skipped. An arrival whose tuple is already alive (exact
// engine only) joins exactly the frontiers its class is in: C_o is
// C_class, with no filter and no verify comparison (Alg. 1's Identical
// case, taken once for every user).
func (f *FilterThenVerify) Process(o object.Object) []int {
	f.Ctr.AddProcessed()
	co := f.Scratch.Start()
	rep, twin := f.Resolve(o)
	if twin {
		f.Ctr.AddTwin()
		co = f.AppendHolders(co, rep.ID)
	} else {
		for ui := range f.Clusters {
			members := f.Clusters[ui].Members
			switch {
			case len(members) == 0:
			case f.Own(ui):
				if f.verifyUser(members[0], rep) {
					co = append(co, members[0])
				}
			case f.updateClusterFrontier(ui, rep):
				if t := f.memberTableOf(ui); t != nil {
					co = f.verifyMembers(ui, t, rep, co)
					continue
				}
				for _, c := range members {
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
// Comparisons here are the shared, filter-tier work. The exact engine
// reads a long P_U through its value postings (scanIndexed), which test
// the members scanLinear would, in the same order, minus those that could
// only compare Incomparable; P_U, its scan order and every eviction come
// out identical either way.
//
//paretomon:hotpath
func (f *FilterThenVerify) updateClusterFrontier(ui int, o object.Object) bool {
	fu := f.ClusterFronts[ui]
	var po pref.Probe
	f.Clusters[ui].Common.Prepare(o, &po)
	ix := f.postingsOf(ui)
	var isPareto bool
	if ix != nil && fu.Len() >= indexMinLen && f.planIndexed(ui, ix, &po, o) {
		isPareto = f.scanIndexed(ui, ix, &po)
	} else {
		isPareto = f.scanLinear(ui, ix, &po)
	}
	if isPareto {
		n := fu.Len()
		fu.Add(o) // a no-op when o is already a member
		if fu.Len() > n && ix.current(fu) && !ix.add(n, o.Attrs) {
			ix.rebuild(fu, f.Clusters[ui].Common.Domains())
		}
	}
	return isPareto
}

// scanLinear is Alg. 2's filter scan over every member of P_U. It reports
// whether the prepared arrival survives the filter.
//
//paretomon:hotpath
func (f *FilterThenVerify) scanLinear(ui int, ix *valuePostings, po *pref.Probe) bool {
	fu := f.ClusterFronts[ui]
	for i := 0; i < fu.Len(); {
		f.Ctr.AddFilter(1)
		switch po.Compare(fu.At(i)) {
		case pref.Left:
			// o ≻_U o': o' leaves P_U and, per Lines 4-6, every member's
			// P_c (P_c ⊆ P_U is the engine's standing invariant). The
			// swap-delete moves the last member into i: test it next.
			f.evict(ui, ix, i)
		case pref.Right:
			// o'≻_U o: by Theorem 4.5 o is outside every member's frontier.
			return false
		case pref.Identical:
			// o' = o: o is Pareto-optimal in P_U, and anything o would
			// remove was already removed when its twin arrived. Alg. 2's
			// pseudocode omits this case; we adopt Alg. 1's identical
			// short-circuit, which matters on catalogs with duplicate
			// attribute combinations. Only the approximate engine still
			// gets here: the exact one resolves a twin before any scan.
			return true
		default: // Incomparable: keep scanning
			i++
		}
	}
	return true
}

// indexMinLen is the shortest filter frontier whose scans the exact
// engine plans through the value postings. Per scan the postings pay from
// about 64 members on (BenchmarkFilterScan on the 160-user movie cluster:
// the linear scan is faster at 32, the postings a third faster at 64);
// the constant sits one doubling above, where a scan saves over three
// times as much and the postings weigh about half as much per member, so
// that the small clusters of a many-cluster community keep Alg. 2's
// linear scan and hold no postings.
const indexMinLen = 128

// planIndexed fills f.scan with the postings of the values the prepared
// arrival o can compare with — on each attribute, its own value and those
// ordered with it under ≻_U — and reports whether the indexed scan pays.
// It does not when a prepared row is nil or shorter than the values P_U
// holds (a value interned after the table was published, or a domain past
// order.TableMaxN: the postings cannot say which members it orders), when
// no attribute narrows the scan, or when the most selective attribute's
// word reads plus the comparisons it leaves reach P_U's length, the
// linear scan's bound. Stale postings are rebuilt first.
//
//paretomon:hotpath
func (f *FilterThenVerify) planIndexed(ui int, ix *valuePostings, po *pref.Probe, o object.Object) bool {
	fu, doms := f.ClusterFronts[ui], f.Clusters[ui].Common.Domains()
	for d := range doms {
		if po.Row(d) == nil {
			return false
		}
	}
	if !ix.current(fu) {
		ix.rebuild(fu, doms)
	}
	sc := &f.scan
	sc.sets, sc.groups = sc.sets[:0], sc.groups[:0]
	n := fu.Len()
	for d, post := range ix.post {
		row, count := po.Row(d), ix.count[d]
		if ix.over[d] > 0 {
			return false
		}
		reach := min(len(row), len(count))
		for _, c := range count[reach:] {
			if c > 0 {
				return false // a member's value is past the row
			}
		}
		x, lo, members := int(o.Attrs[d]), len(sc.sets), 0
		if x < reach && count[x] > 0 {
			sc.sets = append(sc.sets, post[x])
			members += int(count[x])
		}
		for _, v := range ix.ordered(d, x, row) {
			if int(v) < reach && count[v] > 0 {
				sc.sets = append(sc.sets, post[v])
				members += int(count[v])
			}
		}
		if members == n {
			sc.sets = sc.sets[:lo] // every member is comparable here
			continue
		}
		sc.groups = append(sc.groups, postingGroup{lo: lo, hi: len(sc.sets), members: members})
	}
	if len(sc.groups) == 0 {
		return false
	}
	// The most selective attribute first: its OR empties a word soonest,
	// and it bounds the comparisons left to make.
	g := sc.groups
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && g[j].members < g[j-1].members; j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
	first := sc.groups[0]
	words := (n + wordBits - 1) / wordBits
	return words*(first.hi-first.lo)+first.members < n
}

// scanIndexed is scanLinear over the members f.scan leaves: ascending scan
// positions, word by word, each word's candidates read only when the scan
// reaches it, so a dominated arrival stops where the linear scan would.
// An eviction swap-deletes as there, and the word is read again from the
// evicted position on: the member moved into it is tested next if it is a
// candidate.
//
//paretomon:hotpath
func (f *FilterThenVerify) scanIndexed(ui int, ix *valuePostings, po *pref.Probe) bool {
	fu := f.ClusterFronts[ui]
	sc := &f.scan
	for w := 0; w*wordBits < fu.Len(); w++ {
		for m := sc.word(w); m != 0; {
			b := bits.TrailingZeros64(m)
			i := w*wordBits + b
			f.Ctr.AddFilter(1)
			switch po.Compare(fu.At(i)) {
			case pref.Left:
				f.evict(ui, ix, i)
				m = sc.word(w) &^ (1<<b - 1)
			case pref.Right:
				return false
			case pref.Identical:
				return true
			default:
				m &= m - 1
			}
		}
	}
	return true
}

// evict takes the member at scan position i out of P_U, its postings and
// every member frontier holding it.
func (f *FilterThenVerify) evict(ui int, ix *valuePostings, i int) {
	fu := f.ClusterFronts[ui]
	id := fu.At(i).ID
	if ix.current(fu) {
		ix.remove(fu, i)
	}
	fu.Remove(id)
	f.EvictFromMembers(ui, id)
}

// postingsOf returns cluster ui's value postings, or nil on an engine
// whose members are objects (the paper's per-object engine and the
// approximate one keep Alg. 2's linear scan).
func (f *FilterThenVerify) postingsOf(ui int) *valuePostings {
	if !f.on {
		return nil
	}
	if ui >= len(f.postings) {
		f.growPostings()
	}
	return &f.postings[ui]
}

// growPostings gives every cluster a slot, stale; a lifecycle call
// founded a cluster since the last scan.
func (f *FilterThenVerify) growPostings() {
	f.postings = append(f.postings, make([]valuePostings, len(f.Clusters)-len(f.postings))...)
}

// staleAll marks every cluster's postings stale. The lifecycle calls and
// a restore write P_U without the postings; the next indexed scan
// rebuilds them. The member tables follow the lifecycle calls one member
// at a time instead (ClusterShard).
func (f *FilterThenVerify) staleAll() {
	for i := range f.postings {
		f.postings[i].forget()
	}
}

// RestoreState is ClusterShard's, with the postings marked stale.
func (f *FilterThenVerify) RestoreState(st *EngineState) error {
	defer f.staleAll()
	return f.ClusterShard.RestoreState(st)
}

// verifyUser discerns the "false positives" of the filter tier for one
// member (Alg. 2 Line 6 → Alg. 1's updateParetoFrontier against P_c); on
// a cluster of its own it is all of Alg. 1's work for the user. Under
// tuple classes o is the representative of a class no frontier member
// shares a tuple with, and the Identical case is Process's twin path;
// only a per-object engine still meets it here.
//
//paretomon:hotpath
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
