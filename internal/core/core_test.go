package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/oracle"
	"repro/internal/pref"
	"repro/internal/stats"
)

// laptopFTV builds the paper's single cluster U = {c1, c2} with the given
// exact common profile.
func laptopFTV(l *fixtures.Laptops, common *pref.Profile, ctr *stats.Counters) *core.FilterThenVerify {
	return core.NewFilterThenVerify(
		[]*pref.Profile{l.C1, l.C2},
		[]core.Cluster{{Members: []int{0, 1}, Common: common}},
		ctr,
	)
}

func TestBaselinePaperExample(t *testing.T) {
	l := fixtures.NewLaptops()
	b := core.NewBaseline([]*pref.Profile{l.C1, l.C2}, nil)

	fixtures.Feed(b, l.Objects[:14]) // o1..o14

	// Example 4.8: before o15, P_c1 = {o2} and o7 ∈ P_c2.
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2)) {
		t.Fatalf("P_c1 after o14 = %v, want %v", got, fixtures.PaperIDs(2))
	}
	if got := fixtures.Sorted(b.UserFrontier(1)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 7)) {
		t.Fatalf("P_c2 after o14 = %v, want %v", got, fixtures.PaperIDs(2, 3, 7))
	}

	// Example 1.1 / 3.5: o15 goes to c2 only.
	co15 := b.Process(l.Objects[14])
	if !reflect.DeepEqual(co15, []int{1}) {
		t.Fatalf("C_o15 = %v, want [1]", co15)
	}
	// Example 3.5: P_c1 = {o2}, P_c2 = {o2, o3, o15}.
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2)) {
		t.Fatalf("P_c1 = %v, want %v", got, fixtures.PaperIDs(2))
	}
	if got := fixtures.Sorted(b.UserFrontier(1)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 15)) {
		t.Fatalf("P_c2 = %v, want %v", got, fixtures.PaperIDs(2, 3, 15))
	}
	// C_o2 = {c1, c2}, C_o3 = C_o15 = {c2} (Example 3.5).
	if got := b.Targets(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("C_o2 = %v", got)
	}
	if got := b.Targets(2); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("C_o3 = %v", got)
	}

	// Sec. 1: o16 reaches nobody.
	if co16 := b.Process(l.Objects[15]); len(co16) != 0 {
		t.Fatalf("C_o16 = %v, want empty", co16)
	}
}

func TestFilterThenVerifyPaperExample(t *testing.T) {
	l := fixtures.NewLaptops()
	ctr := &stats.Counters{}
	f := laptopFTV(l, l.U, ctr)

	fixtures.Feed(f, l.Objects[:14])

	// Example 4.8: P_U = {o2, o3, o7, o10} before o15.
	if got := fixtures.Sorted(f.ClusterFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 7, 10)) {
		t.Fatalf("P_U after o14 = %v, want %v", got, fixtures.PaperIDs(2, 3, 7, 10))
	}

	co15 := f.Process(l.Objects[14])
	if !reflect.DeepEqual(co15, []int{1}) {
		t.Fatalf("C_o15 = %v, want [1]", co15)
	}
	// Example 4.4 / 4.7: P_U = {o2, o3, o10, o15} (o15 replaced o7).
	if got := fixtures.Sorted(f.ClusterFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 10, 15)) {
		t.Fatalf("P_U = %v, want %v", got, fixtures.PaperIDs(2, 3, 10, 15))
	}
	if got := fixtures.Sorted(f.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2)) {
		t.Fatalf("P_c1 = %v, want %v", got, fixtures.PaperIDs(2))
	}
	if got := fixtures.Sorted(f.UserFrontier(1)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 3, 15)) {
		t.Fatalf("P_c2 = %v, want %v", got, fixtures.PaperIDs(2, 3, 15))
	}

	// Example 4.8: o16 is filtered out at the cluster tier; no verify
	// comparisons may happen for it.
	verifyBefore := ctr.VerifyComparisons
	if co16 := f.Process(l.Objects[15]); len(co16) != 0 {
		t.Fatalf("C_o16 = %v, want empty", co16)
	}
	if ctr.VerifyComparisons != verifyBefore {
		t.Error("o16 must be rejected by the filter without per-user verification")
	}
}

func TestFilterThenVerifyApproxPaperExample(t *testing.T) {
	l := fixtures.NewLaptops()
	f := core.NewFilterThenVerifyPerObject(
		[]*pref.Profile{l.C1, l.C2},
		[]core.Cluster{{Members: []int{0, 1}, Common: l.UHat}},
		nil,
	)

	fixtures.Feed(f, l.Objects[:14])

	// Example 6.3: P̂_U = {o2, o7} before o15; P̂_c2 = {o2, o7}.
	if got := fixtures.Sorted(f.ClusterFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 7)) {
		t.Fatalf("P̂_U after o14 = %v, want %v", got, fixtures.PaperIDs(2, 7))
	}
	if got := fixtures.Sorted(f.UserFrontier(1)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 7)) {
		t.Fatalf("P̂_c2 after o14 = %v, want %v", got, fixtures.PaperIDs(2, 7))
	}

	// Example 6.3: o15 replaces o7; Ĉ_o15 = {c2} — identical to the exact
	// target users, "no loss of accuracy in this case".
	co15 := f.Process(l.Objects[14])
	if !reflect.DeepEqual(co15, []int{1}) {
		t.Fatalf("Ĉ_o15 = %v, want [1]", co15)
	}
	if got := fixtures.Sorted(f.ClusterFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 15)) {
		t.Fatalf("P̂_U = %v, want %v", got, fixtures.PaperIDs(2, 15))
	}
	if got := fixtures.Sorted(f.UserFrontier(0)); !reflect.DeepEqual(got, fixtures.PaperIDs(2)) {
		t.Fatalf("P̂_c1 = %v, want %v", got, fixtures.PaperIDs(2))
	}
	if got := fixtures.Sorted(f.UserFrontier(1)); !reflect.DeepEqual(got, fixtures.PaperIDs(2, 15)) {
		t.Fatalf("P̂_c2 = %v, want %v", got, fixtures.PaperIDs(2, 15))
	}
}

func TestIdenticalObjectsCoexist(t *testing.T) {
	l := fixtures.NewLaptops()
	b := core.NewBaseline([]*pref.Profile{l.C1}, nil)
	b.Process(l.Objects[1]) // o2
	dup := object.Object{ID: 99, Attrs: append([]int32(nil), l.Objects[1].Attrs...)}
	co := b.Process(dup)
	if !reflect.DeepEqual(co, []int{0}) {
		t.Fatalf("duplicate of a Pareto object must be Pareto: C_o = %v", co)
	}
	if got := fixtures.Sorted(b.UserFrontier(0)); !reflect.DeepEqual(got, []int{1, 99}) {
		t.Fatalf("frontier = %v, want both copies", got)
	}
}

func TestTargetsShrinkOnDomination(t *testing.T) {
	l := fixtures.NewLaptops()
	b := core.NewBaseline([]*pref.Profile{l.C1, l.C2}, nil)
	b.Process(l.Objects[0]) // o1 is initially Pareto for both
	if got := b.Targets(0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("C_o1 = %v, want [0 1]", got)
	}
	b.Process(l.Objects[1]) // o2 dominates o1 for both users
	if got := b.Targets(0); got != nil {
		t.Fatalf("C_o1 after o2 = %v, want nil", got)
	}
}

func TestClusterPartitionValidation(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1, l.C2}
	for name, clusters := range map[string][]core.Cluster{
		"missing user":  {{Members: []int{0}, Common: l.U}},
		"duplicate":     {{Members: []int{0, 0}, Common: l.U}},
		"out of range":  {{Members: []int{0, 5}, Common: l.U}},
		"overlap":       {{Members: []int{0, 1}, Common: l.U}, {Members: []int{1}, Common: l.U}},
		"negative user": {{Members: []int{-1, 0}, Common: l.U}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			core.NewFilterThenVerify(users, clusters, nil)
		}()
	}
}

// TestClassKeyedEnginesRefuseUnsubsumedRelations: the constructors that
// key frontiers by tuple class take only cluster relations every member
// subsumes — Table 2's Û is not one — and an exact engine handed such a
// relation later (an approximate CommonFn wired to it) stops instead of
// serving different frontiers; the per-object constructors take both.
func TestClassKeyedEnginesRefuseUnsubsumedRelations(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1.Clone(), l.C2.Clone()}
	approx := []core.Cluster{{Members: []int{0, 1}, Common: l.UHat}}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewFilterThenVerify(Û)", func() { core.NewFilterThenVerify(users, approx, nil) })
	if _, err := core.NewSharded(users, approx, nil, nil, 1, nil); err == nil {
		t.Error("NewSharded(Û): expected an error")
	}
	if _, err := core.NewShardedPerObject(users, approx, nil, nil, 1, nil); err != nil {
		t.Errorf("NewShardedPerObject(Û): %v", err)
	}

	exact := []core.Cluster{{Members: []int{0, 1}, Common: l.U}}
	f := core.NewFilterThenVerify(users, exact, nil)
	f.SetCommonFn(func([]*pref.Profile) *pref.Profile { return l.UHat })
	ap, _ := l.Domains[1].ID("Apple")
	sa, _ := l.Domains[1].ID("Samsung")
	mustPanic("ApplyPreference under an approximate CommonFn", func() { f.ApplyPreference(1, 1, ap, sa) })
	// The failed call above still asserted Apple ≻ Samsung for user 1
	// (the relation grows before the cluster's is recomputed; f's cluster
	// list, exact, now holds Û), so a fresh exact engine can retract it —
	// and must refuse the Û its CommonFn hands back for the cluster.
	g, err := core.NewSharded(users, []core.Cluster{{Members: []int{0, 1}, Common: l.U}}, nil, slices.Values(l.Objects), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.SetCommonFn(func([]*pref.Profile) *pref.Profile { return l.UHat })
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not subsumed") {
				t.Errorf("RetractPreference under an approximate CommonFn: recovered %v, want the subsumption panic", r)
			}
		}()
		g.RetractPreference(1, 1, ap, sa)
	}()
}

func TestFrontier(t *testing.T) {
	f := core.NewFrontier()
	a := object.Object{ID: 1, Attrs: []int32{0}}
	b := object.Object{ID: 2, Attrs: []int32{1}}
	f.Add(a)
	f.Add(b)
	f.Add(a) // duplicate add is a no-op
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	if !f.Contains(1) || f.Contains(3) {
		t.Error("Contains wrong")
	}
	if !f.Remove(1) || f.Remove(1) {
		t.Error("Remove should succeed once")
	}
	if f.Len() != 1 || f.At(0).ID != 2 {
		t.Error("swap-delete broke the list")
	}
	c := f.Clone()
	c.Remove(2)
	if f.Len() != 1 {
		t.Error("Clone not independent")
	}
	if got := f.IDs(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("IDs = %v", got)
	}
	if got := f.Objects(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("Objects = %v", got)
	}
}

// --- randomized equivalence and invariant tests ---

// Baseline's incremental frontier equals the from-scratch frontier.
func TestQuickBaselineMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 3, 3, 5, 60, 6)
		b := core.NewBaseline(users, nil)
		fixtures.Feed(b, objs)
		for c, u := range users {
			if !reflect.DeepEqual(fixtures.Sorted(b.UserFrontier(c)), fixtures.Frontier(fixtures.Asserted(u), objs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FilterThenVerify with exact common preferences is equivalent to Baseline
// (Lemma 4.6), and Theorem 4.5's containment P_c ⊆ P_U holds throughout.
func TestQuickFTVEquivalentToBaseline(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 4, 3, 5, 50, 6)
		clusters := []core.Cluster{
			{Members: []int{0, 1}, Common: pref.Common([]*pref.Profile{users[0], users[1]})},
			{Members: []int{2, 3}, Common: pref.Common([]*pref.Profile{users[2], users[3]})},
		}
		b := core.NewBaseline(users, nil)
		ftv := core.NewFilterThenVerify(users, clusters, nil)
		for _, o := range objs {
			cb := fixtures.Sorted(b.Process(o))
			cf := fixtures.Sorted(ftv.Process(o))
			if !reflect.DeepEqual(cb, cf) {
				return false
			}
		}
		for c := range users {
			if !reflect.DeepEqual(fixtures.Sorted(b.UserFrontier(c)), fixtures.Sorted(ftv.UserFrontier(c))) {
				return false
			}
		}
		// Theorem 4.5: P_U ⊇ P_c for every member.
		for ui, cl := range ftv.Clusters {
			pu := ftv.ClusterFrontier(ui)
			for _, c := range cl.Members {
				for _, id := range ftv.UserFrontier(c) {
					if !slices.Contains(pu, id) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// With approximate relations that subsume the exact common relation,
// Theorem 6.5 (P̂_U ⊆ P_U) and Theorem 6.7 (P̂_U ∩ P_c ⊆ P̂_c) hold; and
// precision property: objects in P̂_c that are in P_U... (the paper's V
// region) are still a subset of P̂_U (Lemma 6.6).
func TestQuickApproxContainments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 3, 2, 5, 40, 5)
		common := pref.Common(users)
		// Build an approximate profile: common plus a few random extra
		// tuples (kept as a valid SPO by Add's rejection).
		approx := common.Clone()
		for d := 0; d < approx.Dims(); d++ {
			for e := 0; e < 4; e++ {
				approx.Relation(d).Add(r.Intn(5), r.Intn(5))
			}
		}
		ap := core.NewFilterThenVerifyPerObject(users, []core.Cluster{{Members: []int{0, 1, 2}, Common: approx}}, nil)
		fixtures.Feed(ap, objs)

		pu := fixtures.Frontier(oracle.Common(fixtures.Asserted(users[0]), fixtures.Asserted(users[1]), fixtures.Asserted(users[2])), objs) // Def. 4.1
		puHat := map[int]bool{}
		for _, id := range ap.ClusterFrontier(0) {
			puHat[id] = true
			if !slices.Contains(pu, id) {
				return false // Theorem 6.5: P̂_U ⊆ P_U
			}
		}
		// Theorem 6.7: P̂_U ∩ P_c ⊆ P̂_c, and Lemma 6.6: P̂_c ⊆ P̂_U.
		for c, u := range users {
			pcHat := map[int]bool{}
			for _, id := range ap.UserFrontier(c) {
				pcHat[id] = true
				if !puHat[id] {
					return false // Lemma 6.6 violated
				}
			}
			for _, id := range fixtures.Frontier(fixtures.Asserted(u), objs) {
				if puHat[id] && !pcHat[id] {
					return false // Theorem 6.7 violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Shared computation must not change results across cluster granularities:
// one big cluster vs singleton clusters vs Baseline.
func TestQuickClusterGranularityInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 3, 2, 4, 40, 5)
		big := core.NewFilterThenVerify(users, []core.Cluster{
			{Members: []int{0, 1, 2}, Common: pref.Common(users)},
		}, nil)
		var singles []core.Cluster
		for c := range users {
			singles = append(singles, core.Cluster{Members: []int{c}, Common: users[c].Clone()})
		}
		sing := core.NewFilterThenVerify(users, singles, nil)
		b := core.NewBaseline(users, nil)
		fixtures.Feed(big, objs)
		fixtures.Feed(sing, objs)
		fixtures.Feed(b, objs)
		for c := range users {
			want := fixtures.Sorted(b.UserFrontier(c))
			if !reflect.DeepEqual(fixtures.Sorted(big.UserFrontier(c)), want) {
				return false
			}
			if !reflect.DeepEqual(fixtures.Sorted(sing.UserFrontier(c)), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComparisonAccounting(t *testing.T) {
	l := fixtures.NewLaptops()
	ctr := &stats.Counters{}
	b := core.NewBaseline([]*pref.Profile{l.C1, l.C2}, ctr)
	fixtures.Feed(b, l.Objects)
	if ctr.Processed != 16 {
		t.Errorf("Processed = %d", ctr.Processed)
	}
	if ctr.FilterComparisons != 0 {
		t.Errorf("Baseline must not count filter comparisons, got %d", ctr.FilterComparisons)
	}
	if ctr.Comparisons == 0 || ctr.Comparisons != ctr.VerifyComparisons {
		t.Errorf("comparisons accounting broken: %v", ctr)
	}
	if ctr.Delivered == 0 {
		t.Error("Delivered should be positive")
	}

	ctr2 := &stats.Counters{}
	f := laptopFTV(l, l.U, ctr2)
	fixtures.Feed(f, l.Objects)
	if ctr2.FilterComparisons == 0 || ctr2.VerifyComparisons == 0 {
		t.Errorf("FTV should count both tiers: %v", ctr2)
	}
	if ctr2.Comparisons != ctr2.FilterComparisons+ctr2.VerifyComparisons {
		t.Errorf("comparison sum mismatch: %v", ctr2)
	}
}
