package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/fixtures"
	"repro/internal/order"
	"repro/internal/pref"
)

const eps = 1e-12

func approxEq(a, b float64) bool { return math.Abs(a-b) < eps }

func TestMeasureString(t *testing.T) {
	for m, want := range map[cluster.Measure]string{
		cluster.IntersectionSize:      "sim_i",
		cluster.Jaccard:               "sim_j",
		cluster.WeightedIntersection:  "sim_wi",
		cluster.WeightedJaccard:       "sim_wj",
		cluster.VectorJaccard:         "sim_j(vec)",
		cluster.VectorWeightedJaccard: "sim_wj(vec)",
	} {
		if m.String() != want {
			t.Errorf("String(%d) = %q, want %q", m, m.String(), want)
		}
	}
}

// Example 5.1: sim_i over Table 3's cluster relations.
func TestExample51IntersectionSize(t *testing.T) {
	b := fixtures.NewBrands()
	if got := cluster.SimAttr(cluster.IntersectionSize, b.U[0], b.U[1]); got != 0 {
		t.Errorf("sim_i(U1,U2) = %v, want 0", got)
	}
	if got := cluster.SimAttr(cluster.IntersectionSize, b.U[0], b.U[2]); got != 2 {
		t.Errorf("sim_i(U1,U3) = %v, want 2", got)
	}
	if got := cluster.SimAttr(cluster.IntersectionSize, b.U[1], b.U[2]); got != 2 {
		t.Errorf("sim_i(U2,U3) = %v, want 2", got)
	}
}

// Example 5.2: sim_j(U1,U3) = 2/6, sim_j(U2,U3) = 2/7.
func TestExample52Jaccard(t *testing.T) {
	b := fixtures.NewBrands()
	if got := cluster.SimAttr(cluster.Jaccard, b.U[0], b.U[2]); !approxEq(got, 2.0/6) {
		t.Errorf("sim_j(U1,U3) = %v, want 1/3", got)
	}
	if got := cluster.SimAttr(cluster.Jaccard, b.U[1], b.U[2]); !approxEq(got, 2.0/7) {
		t.Errorf("sim_j(U2,U3) = %v, want 2/7", got)
	}
}

// Example 5.4: sim_wi(U1,U3) = sim_wi(U2,U3) = 3/2.
func TestExample54WeightedIntersection(t *testing.T) {
	b := fixtures.NewBrands()
	if got := cluster.SimAttr(cluster.WeightedIntersection, b.U[0], b.U[2]); !approxEq(got, 1.5) {
		t.Errorf("sim_wi(U1,U3) = %v, want 3/2", got)
	}
	if got := cluster.SimAttr(cluster.WeightedIntersection, b.U[1], b.U[2]); !approxEq(got, 1.5) {
		t.Errorf("sim_wi(U2,U3) = %v, want 3/2", got)
	}
}

// Example 5.5: sim_wj(U1,U3) = 3/11, sim_wj(U2,U3) = 3/12; weighted
// Jaccard separates what weighted intersection ties.
func TestExample55WeightedJaccard(t *testing.T) {
	b := fixtures.NewBrands()
	s13 := cluster.SimAttr(cluster.WeightedJaccard, b.U[0], b.U[2])
	s23 := cluster.SimAttr(cluster.WeightedJaccard, b.U[1], b.U[2])
	if !approxEq(s13, 3.0/11) {
		t.Errorf("sim_wj(U1,U3) = %v, want 3/11", s13)
	}
	if !approxEq(s23, 3.0/12) {
		t.Errorf("sim_wj(U2,U3) = %v, want 3/12", s23)
	}
	if s13 <= s23 {
		t.Error("sim_wj must rank (U1,U3) above (U2,U3)")
	}
}

// Example 6.8: vector Jaccard sim over member frequency vectors = 2.5/7.
func TestExample68VectorJaccard(t *testing.T) {
	b := fixtures.NewBrands()
	u1 := cluster.NewVector([]*pref.Profile{b.Profiles[0], b.Profiles[1]}, false)
	u3 := cluster.NewVector([]*pref.Profile{b.Profiles[4], b.Profiles[5]}, false)
	got := cluster.SimVectors(u1, u3)
	if want := 2.5 / 7.0; !approxEq(got, want) { // paper rounds to 0.36
		t.Errorf("sim_j(vec)(U1,U3) = %v, want %v", got, want)
	}
}

// Example 6.9: weighted vector Jaccard = 1.25/6.75 ≈ 0.19.
func TestExample69VectorWeightedJaccard(t *testing.T) {
	b := fixtures.NewBrands()
	u1 := cluster.NewVector([]*pref.Profile{b.Profiles[0], b.Profiles[1]}, true)
	u3 := cluster.NewVector([]*pref.Profile{b.Profiles[4], b.Profiles[5]}, true)
	got := cluster.SimVectors(u1, u3)
	if want := 1.25 / 6.75; !approxEq(got, want) { // paper rounds to 0.19
		t.Errorf("sim_wj(vec)(U1,U3) = %v, want %v", got, want)
	}
}

// Example 5.5 / Sec. 8.2: with sim_wj and branch cut h ∈ (0, 3/11], Table 3
// clusters into {{c1,c2,c5,c6}, {c3,c4}}.
func TestExample55BranchCut(t *testing.T) {
	b := fixtures.NewBrands()
	res := cluster.Agglomerative(b.Profiles, cluster.WeightedJaccard, 3.0/11)
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v, want 2 clusters", res)
	}
	if !reflect.DeepEqual(res.Clusters[0].Members, []int{0, 1, 4, 5}) {
		t.Errorf("cluster 0 = %v, want [0 1 4 5]", res.Clusters[0].Members)
	}
	if !reflect.DeepEqual(res.Clusters[1].Members, []int{2, 3}) {
		t.Errorf("cluster 1 = %v, want [2 3]", res.Clusters[1].Members)
	}
	// sim(U4, U2) = 0 (Sec. 8.2), so even h just above 0 keeps them apart.
	res2 := cluster.Agglomerative(b.Profiles, cluster.WeightedJaccard, 1e-9)
	if len(res2.Clusters) != 2 {
		t.Errorf("h→0 should still give 2 clusters (sim(U4,U2)=0), got %v", res2)
	}
	// A branch cut above 3/11 must keep U1 and U3 apart.
	res3 := cluster.Agglomerative(b.Profiles, cluster.WeightedJaccard, 0.28)
	for _, c := range res3.Clusters {
		if len(c.Members) > 2 {
			t.Errorf("h=0.28 should not merge beyond pairs: %v", res3)
		}
	}
}

// The merged cluster's common profile equals the intersection of member
// profiles.
func TestClusterCommonIsIntersection(t *testing.T) {
	b := fixtures.NewBrands()
	res := cluster.Agglomerative(b.Profiles, cluster.WeightedJaccard, 3.0/11)
	for _, c := range res.Clusters {
		var members []*pref.Profile
		for _, m := range c.Members {
			members = append(members, b.Profiles[m])
		}
		if !c.Common.Equal(pref.Common(members)) {
			t.Errorf("cluster %v common profile mismatch", c.Members)
		}
	}
}

func TestDendrogramRecorded(t *testing.T) {
	b := fixtures.NewBrands()
	res := cluster.Agglomerative(b.Profiles, cluster.WeightedJaccard, 1e-9)
	if len(res.Dendrogram) != 4 { // 6 users -> 2 clusters = 4 merges
		t.Fatalf("dendrogram has %d merges, want 4", len(res.Dendrogram))
	}
	for i := 1; i < len(res.Dendrogram); i++ {
		if res.Dendrogram[i].Sim > res.Dendrogram[i-1].Sim+eps {
			t.Error("merge similarities must be non-increasing")
		}
	}
}

func TestAgglomerativeEdgeCases(t *testing.T) {
	if res := cluster.Agglomerative(nil, cluster.Jaccard, 0.5); len(res.Clusters) != 0 {
		t.Error("empty user set should give no clusters")
	}
	b := fixtures.NewBrands()
	one := cluster.Agglomerative(b.Profiles[:1], cluster.Jaccard, 0.5)
	if len(one.Clusters) != 1 || len(one.Clusters[0].Members) != 1 {
		t.Errorf("single user: %v", one)
	}
	// Infinite branch cut: nothing merges.
	all := cluster.Agglomerative(b.Profiles, cluster.Jaccard, math.Inf(1))
	if len(all.Clusters) != 6 {
		t.Errorf("h=+Inf should keep singletons, got %v", all)
	}
}

func TestVectorMeasuresCluster(t *testing.T) {
	b := fixtures.NewBrands()
	// With the vector Jaccard at a low branch cut, clustering must still
	// partition all six users and keep common profiles consistent.
	res := cluster.Agglomerative(b.Profiles, cluster.VectorJaccard, 0.3)
	seen := map[int]bool{}
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("user %d in two clusters: %v", m, res)
			}
			seen[m] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("clusters don't cover all users: %v", res)
	}
}

func TestVectorMergeMatchesRebuild(t *testing.T) {
	b := fixtures.NewBrands()
	for _, weighted := range []bool{false, true} {
		ab := cluster.NewVector([]*pref.Profile{b.Profiles[0], b.Profiles[1]}, weighted)
		c := cluster.NewVector([]*pref.Profile{b.Profiles[2]}, weighted)
		merged := ab.Merge(c)
		rebuilt := cluster.NewVector([]*pref.Profile{b.Profiles[0], b.Profiles[1], b.Profiles[2]}, weighted)
		// Equal iff similarity with an arbitrary probe vector matches and
		// self-similarity is 1-per-attribute; simplest check: sim to each
		// other is the dims count (identical vectors).
		if got := cluster.SimVectors(merged, rebuilt); !approxEq(got, 1.0) {
			t.Errorf("weighted=%v: merged vector differs from rebuilt (sim=%v)", weighted, got)
		}
	}
}

func TestSimAttrPanicsOnVectorMeasure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := fixtures.NewBrands()
	cluster.SimAttr(cluster.VectorJaccard, b.U[0], b.U[1])
}

// --- properties ---

func randomProfiles(r *rand.Rand, k, domSize, edges int) []*pref.Profile {
	dom := order.NewDomain("d")
	for i := 0; i < domSize; i++ {
		dom.Intern(string(rune('A' + i)))
	}
	doms := []*order.Domain{dom}
	out := make([]*pref.Profile, k)
	for u := range out {
		p := pref.NewProfile(doms)
		for e := 0; e < edges; e++ {
			p.Relation(0).Add(r.Intn(domSize), r.Intn(domSize))
		}
		out[u] = p
	}
	return out
}

// Similarity measures are symmetric and bounded appropriately.
func TestQuickSimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := randomProfiles(r, 2, 6, 8)
		a, b := ps[0], ps[1]
		for _, m := range []cluster.Measure{
			cluster.IntersectionSize, cluster.Jaccard,
			cluster.WeightedIntersection, cluster.WeightedJaccard,
		} {
			sab := cluster.Sim(m, a, b)
			sba := cluster.Sim(m, b, a)
			if !approxEq(sab, sba) {
				return false
			}
			if sab < 0 {
				return false
			}
			if (m == cluster.Jaccard || m == cluster.WeightedJaccard) && sab > 1+eps {
				return false
			}
		}
		// Self-similarity of Jaccard measures is 1 (for non-empty relations).
		if a.Relation(0).Size() > 0 {
			if !approxEq(cluster.Sim(cluster.Jaccard, a, a), 1) {
				return false
			}
			if !approxEq(cluster.Sim(cluster.WeightedJaccard, a, a), 1) {
				return false
			}
		}
		// Vector measures: symmetric, in [0, dims].
		for _, w := range []bool{false, true} {
			va := cluster.NewVector([]*pref.Profile{a}, w)
			vb := cluster.NewVector([]*pref.Profile{b}, w)
			if !approxEq(cluster.SimVectors(va, vb), cluster.SimVectors(vb, va)) {
				return false
			}
			if s := cluster.SimVectors(va, vb); s < 0 || s > 1+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Clustering always partitions the user set, for every measure.
func TestQuickClusteringPartitions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := randomProfiles(r, 8, 5, 6)
		for _, m := range []cluster.Measure{
			cluster.IntersectionSize, cluster.Jaccard,
			cluster.WeightedIntersection, cluster.WeightedJaccard,
			cluster.VectorJaccard, cluster.VectorWeightedJaccard,
		} {
			h := r.Float64()
			res := cluster.Agglomerative(ps, m, h)
			seen := make([]bool, len(ps))
			for _, c := range res.Clusters {
				for _, u := range c.Members {
					if seen[u] {
						return false
					}
					seen[u] = true
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Lower branch cuts merge at least as much (cluster count is monotone).
func TestQuickBranchCutMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := randomProfiles(r, 8, 5, 6)
		h1 := r.Float64() * 0.5
		h2 := h1 + r.Float64()*0.5
		lo := cluster.Agglomerative(ps, cluster.WeightedJaccard, h1)
		hi := cluster.Agglomerative(ps, cluster.WeightedJaccard, h2)
		return len(lo.Clusters) <= len(hi.Clusters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDendrogramRendersPinned holds the merge steps (pairs, result ids,
// similarities to three digits) and String to what they were while
// String concatenated with +=.
func TestDendrogramRendersPinned(t *testing.T) {
	res := cluster.Agglomerative(fixtures.NewBrands().Profiles, cluster.WeightedJaccard, 1e-9)
	var steps strings.Builder
	for _, st := range res.Dendrogram {
		fmt.Fprintf(&steps, "%d+%d=%d@%.3f ", st.A, st.B, st.Result, st.Sim)
	}
	if got, want := steps.String(), "2+3=6@0.923 0+1=7@0.778 4+5=8@0.778 7+8=9@0.273 "; got != want {
		t.Errorf("Dendrogram %q, want %q", got, want)
	}
	if got, want := res.String(), "[[0 1 4 5] [2 3]]"; got != want {
		t.Errorf("String %q, want %q", got, want)
	}
}

// TestAgglomerativeK checks the target-count cut: merging continues past
// any similarity threshold until exactly k clusters remain.
func TestAgglomerativeK(t *testing.T) {
	users := fixtures.NewBrands().Profiles
	for k := 1; k <= len(users); k++ {
		res := cluster.AgglomerativeK(users, cluster.WeightedJaccard, k)
		if got := len(res.Clusters); got != k {
			t.Errorf("k=%d: got %d clusters", k, got)
		}
		// Every user appears exactly once.
		seen := map[int]bool{}
		for _, c := range res.Clusters {
			for _, m := range c.Members {
				if seen[m] {
					t.Errorf("k=%d: user %d in two clusters", k, m)
				}
				seen[m] = true
			}
		}
		if len(seen) != len(users) {
			t.Errorf("k=%d: covered %d of %d users", k, len(seen), len(users))
		}
	}
	// k beyond n: all singletons.
	res := cluster.AgglomerativeK(users, cluster.WeightedJaccard, len(users)+5)
	if got := len(res.Clusters); got != len(users) {
		t.Errorf("k>n: got %d clusters, want %d singletons", got, len(users))
	}
}
