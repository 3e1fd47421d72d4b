// Package integration ties the full pipeline together: workload generation
// → clustering → engines (append-only and windowed, exact and approximate)
// → accuracy metrics, plus serialization round trips and the public facade
// driving the same computation. These tests cross module boundaries on
// purpose; per-module behavior is covered by each package's own suite.
package integration_test

import (
	"bytes"
	"reflect"
	"testing"

	paretomon "repro"
	"repro/internal/accuracy"
	"repro/internal/approx"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fixtures"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// smallWorkload generates a fast movie-like dataset.
func smallWorkload(t *testing.T) *datagen.Dataset {
	t.Helper()
	cfg := datagen.Movie().Scaled(500, 30)
	return datagen.Generate(cfg)
}

// TestPipelineExactEquivalence: generated data → HAC → FilterThenVerify
// must equal Baseline user by user, and the filter must actually save
// comparisons.
func TestPipelineExactEquivalence(t *testing.T) {
	ds := smallWorkload(t)
	res := cluster.Agglomerative(ds.Users, cluster.WeightedJaccard, 3.3)
	clusters := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		clusters[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
	}
	cb, cf := &stats.Counters{}, &stats.Counters{}
	base := core.NewBaseline(ds.Users, cb)
	ftv := core.NewFilterThenVerify(ds.Users, clusters, cf)
	for _, o := range ds.Objects {
		db := fixtures.Sorted(base.Process(o))
		df := fixtures.Sorted(ftv.Process(o))
		if !reflect.DeepEqual(db, df) {
			t.Fatalf("o%d: deliveries differ: %v vs %v", o.ID, db, df)
		}
	}
	for c := range ds.Users {
		if !reflect.DeepEqual(fixtures.Sorted(base.UserFrontier(c)), fixtures.Sorted(ftv.UserFrontier(c))) {
			t.Fatalf("user %d frontier mismatch", c)
		}
	}
	if cf.Comparisons >= cb.Comparisons {
		t.Errorf("FTV should save comparisons: %d vs %d", cf.Comparisons, cb.Comparisons)
	}
}

// TestPipelineApproxAccuracy: the approximate engine keeps near-perfect
// precision on generated data (Sec. 6.2's one-sided error).
func TestPipelineApproxAccuracy(t *testing.T) {
	ds := smallWorkload(t)
	base := core.NewBaseline(ds.Users, nil)
	res := cluster.Agglomerative(ds.Users, cluster.VectorWeightedJaccard, 2.8)
	clusters := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		members := make([]*pref.Profile, len(ci.Members))
		for j, id := range ci.Members {
			members[j] = ds.Users[id]
		}
		clusters[i] = core.Cluster{Members: ci.Members, Common: approx.Profile(members, 2500, 0.5)}
	}
	ftva := core.NewFilterThenVerifyPerObject(ds.Users, clusters, nil)
	for _, o := range ds.Objects {
		base.Process(o)
		ftva.Process(o)
	}
	exact := make([][]int, len(ds.Users))
	got := make([][]int, len(ds.Users))
	for c := range ds.Users {
		exact[c] = fixtures.Sorted(base.UserFrontier(c))
		got[c] = fixtures.Sorted(ftva.UserFrontier(c))
	}
	acc := accuracy.Evaluate(exact, got)
	if acc.Precision() < 0.98 {
		t.Errorf("precision = %v (%+v)", acc.Precision(), acc)
	}
	if acc.Recall() < 0.6 {
		t.Errorf("recall = %v implausibly low (%+v)", acc.Recall(), acc)
	}
}

// TestPipelineWindowEquivalence: the windowed engines agree with each
// other on generated data, and with an append-only engine when the window
// is larger than the stream.
func TestPipelineWindowEquivalence(t *testing.T) {
	ds := smallWorkload(t)
	res := cluster.Agglomerative(ds.Users, cluster.WeightedJaccard, 3.3)
	clusters := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		clusters[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
	}
	w := 64
	bsw := window.NewBaselineSW(ds.Users, w, nil)
	fsw := window.NewFilterThenVerifySW(ds.Users, clusters, w, nil)
	huge := window.NewBaselineSW(ds.Users, len(ds.Objects)+1, nil)
	app := core.NewBaseline(ds.Users, nil)
	for _, o := range ds.Objects {
		db := fixtures.Sorted(bsw.Process(o))
		df := fixtures.Sorted(fsw.Process(o))
		if !reflect.DeepEqual(db, df) {
			t.Fatalf("o%d: window deliveries differ", o.ID)
		}
		huge.Process(o)
		app.Process(o)
	}
	for c := range ds.Users {
		if !reflect.DeepEqual(fixtures.Sorted(bsw.UserFrontier(c)), fixtures.Sorted(fsw.UserFrontier(c))) {
			t.Fatalf("user %d window frontier mismatch", c)
		}
		// An over-wide window behaves exactly like append-only.
		if !reflect.DeepEqual(fixtures.Sorted(huge.UserFrontier(c)), fixtures.Sorted(app.UserFrontier(c))) {
			t.Fatalf("user %d: wide window differs from append-only", c)
		}
	}
}

// TestSerializationPipeline: dataset → disk formats → facade → monitor
// reproduces the engine-level frontiers.
func TestSerializationPipeline(t *testing.T) {
	ds := smallWorkload(t)
	var objBuf, prefBuf bytes.Buffer
	if err := dataset.WriteObjectsCSV(&objBuf, ds.Domains, ds.Objects); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteProfilesJSON(&prefBuf, ds.Users); err != nil {
		t.Fatal(err)
	}
	com, rows, err := paretomon.LoadCommunity(&objBuf, &prefBuf)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = "obj" + string(rune('A'+i/26/26)) + string(rune('A'+(i/26)%26)) + string(rune('A'+i%26))
		if _, err := mon.Add(names[i], row...); err != nil {
			t.Fatal(err)
		}
	}
	// Compare against the direct engine.
	direct := core.NewBaseline(ds.Users, nil)
	fixtures.Feed(direct, ds.Objects)
	for c, user := range com.Users() {
		want := map[string]bool{}
		for _, id := range direct.UserFrontier(c) {
			want[names[id]] = true
		}
		got, err := mon.Frontier(user)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("user %s: frontier size %d vs %d", user, len(got), len(want))
		}
		for _, n := range got {
			if !want[n] {
				t.Fatalf("user %s: unexpected frontier object %s", user, n)
			}
		}
	}
}

// TestTheorem72NeverReenters: once an object is dominated by a successor,
// it never re-enters any frontier for the rest of its lifetime (Theorem
// 7.2), verified over a generated stream.
func TestTheorem72NeverReenters(t *testing.T) {
	ds := smallWorkload(t)
	u := ds.Users[0]
	w := 48
	b := window.NewBaselineSW([]*pref.Profile{u}, w, nil)
	dominatedBySuccessor := map[int]bool{}
	for i, o := range ds.Objects[:300] {
		alive := ds.Objects[max(0, i+1-w) : i+1]
		b.Process(o)
		// Record domination events: for each alive object, did a successor
		// dominate it?
		for i, x := range alive {
			for _, y := range alive[i+1:] {
				if u.Dominates(y, x) {
					dominatedBySuccessor[x.ID] = true
				}
			}
		}
		for _, id := range b.UserFrontier(0) {
			if dominatedBySuccessor[id] {
				t.Fatalf("object %d re-entered the frontier after being dominated by a successor", id)
			}
		}
	}
}

// Engines are deterministic: identical inputs give identical outputs,
// comparison counts included — the property the benchmark harness relies
// on when attributing comparison counts to algorithms.
func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, [][]int) {
		ds := datagen.Generate(datagen.Movie().Scaled(400, 20))
		res := cluster.Agglomerative(ds.Users, cluster.WeightedJaccard, 3.3)
		clusters := make([]core.Cluster, len(res.Clusters))
		for i, ci := range res.Clusters {
			clusters[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
		}
		ctr := &stats.Counters{}
		eng := window.NewFilterThenVerifySW(ds.Users, clusters, 64, ctr)
		var fronts [][]int
		fixtures.Feed(eng, ds.Objects)
		for c := range ds.Users {
			fronts = append(fronts, fixtures.Sorted(eng.UserFrontier(c)))
		}
		return ctr.Comparisons, fronts
	}
	c1, f1 := run()
	c2, f2 := run()
	if c1 != c2 {
		t.Errorf("comparison counts differ across identical runs: %d vs %d", c1, c2)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("frontiers differ across identical runs")
	}
}

// The parallel engine agrees with the sequential one on a full generated
// workload (not just the random micro-worlds of the core package tests).
func TestParallelOnGeneratedWorkload(t *testing.T) {
	ds := smallWorkload(t)
	res := cluster.Agglomerative(ds.Users, cluster.WeightedJaccard, 3.3)
	clusters := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		clusters[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
	}
	seq := core.NewFilterThenVerify(ds.Users, clusters, nil)
	par, err := core.NewSharded(ds.Users, clusters, nil, nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ds.Objects {
		if !reflect.DeepEqual(seq.Process(o), par.Process(o)) {
			t.Fatalf("o%d: parallel delivery mismatch", o.ID)
		}
	}
	for c := range ds.Users {
		if !reflect.DeepEqual(fixtures.Sorted(seq.UserFrontier(c)), fixtures.Sorted(par.UserFrontier(c))) {
			t.Fatalf("user %d frontier mismatch", c)
		}
	}
}
