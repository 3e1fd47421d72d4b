package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/pref"
	"repro/internal/stats"
)

func TestParallelMatchesSequentialPaperExample(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1, l.C2}
	clusters := []core.Cluster{
		{Members: []int{0}, Common: l.C1.Clone()},
		{Members: []int{1}, Common: l.C2.Clone()},
	}
	seqCtr, parCtr := &stats.Counters{}, &stats.Counters{}
	seq := core.NewFilterThenVerify(users, clusters, seqCtr)
	par := mustSharded(t, users, clusters, 2, parCtr)
	if par.Shards() != 2 {
		t.Fatalf("Shards = %d", par.Shards())
	}
	for _, o := range l.Objects {
		cs := seq.Process(o)
		cp := par.Process(o)
		if !reflect.DeepEqual(cs, cp) {
			t.Fatalf("o%d: sequential %v vs parallel %v", o.ID+1, cs, cp)
		}
	}
	for c := range users {
		if !reflect.DeepEqual(sorted(seq.UserFrontier(c)), sorted(par.UserFrontier(c))) {
			t.Errorf("user %d frontier mismatch", c)
		}
	}
	// The sharded harness accumulates comparisons in per-shard counters;
	// Totals folds them with the public one.
	if seqCtr.Comparisons != par.Totals().Comparisons {
		t.Errorf("comparison accounting: seq=%d par=%d", seqCtr.Comparisons, par.Totals().Comparisons)
	}
	if parCtr.Processed != uint64(len(l.Objects)) {
		t.Errorf("Processed = %d", parCtr.Processed)
	}
	// Targets merge across shards.
	if got := par.Targets(1); !reflect.DeepEqual(got, seq.Targets(1)) {
		t.Errorf("Targets = %v, want %v", got, seq.Targets(1))
	}
}

func TestParallelWorkerClamping(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1, l.C2}
	clusters := []core.Cluster{{Members: []int{0, 1}, Common: l.U}}
	// More workers than clusters: clamps to cluster count.
	par := mustSharded(t, users, clusters, 16, nil)
	if par.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", par.Shards())
	}
	// workers <= 0 resolves to GOMAXPROCS then clamps.
	par0 := mustSharded(t, users, clusters, 0, nil)
	if par0.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", par0.Shards())
	}
}

// A fresh build over a bad partition is refused: with an error from the
// harness constructor (recovery feeds it stored input), with a panic from
// the standalone one (TestClusterPartitionValidation).
func TestParallelValidatesPartition(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1, l.C2}
	for name, tc := range map[string]struct {
		clusters []core.Cluster
		active   []bool
	}{
		"missing user":        {clusters: []core.Cluster{{Members: []int{0}, Common: l.U}}},
		"duplicate":           {clusters: []core.Cluster{{Members: []int{0, 1, 1}, Common: l.U}}},
		"removed user listed": {clusters: []core.Cluster{{Members: []int{0, 1}, Common: l.U}}, active: []bool{true, false}},
	} {
		for _, workers := range []int{1, 2} {
			if _, err := core.NewSharded(users, tc.clusters, tc.active, workers, nil); err == nil {
				t.Errorf("%s, workers=%d: bad partition accepted", name, workers)
			}
		}
	}
	// Removed users and dormant clusters are not a bad partition.
	ok := []core.Cluster{{Members: []int{0}, Common: l.C1.Clone()}, {}}
	if _, err := core.NewSharded(users, ok, []bool{true, false}, 2, nil); err != nil {
		t.Errorf("evolved community refused: %v", err)
	}
}

// Randomized equivalence across worker counts, cluster shapes, and
// object streams.
func TestQuickParallelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := randomWorld(r, 6, 2, 5, 40, 5)
		clusters := []core.Cluster{
			{Members: []int{0, 1}, Common: pref.Common([]*pref.Profile{users[0], users[1]})},
			{Members: []int{2}, Common: users[2].Clone()},
			{Members: []int{3, 4, 5}, Common: pref.Common([]*pref.Profile{users[3], users[4], users[5]})},
		}
		workers := 1 + r.Intn(4)
		seq := core.NewFilterThenVerify(users, clusters, nil)
		par, err := core.NewSharded(users, clusters, nil, workers, nil)
		if err != nil {
			return false
		}
		for _, o := range objs {
			if !reflect.DeepEqual(seq.Process(o), par.Process(o)) {
				return false
			}
		}
		for c := range users {
			if !reflect.DeepEqual(sorted(seq.UserFrontier(c)), sorted(par.UserFrontier(c))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mustSharded builds the append-only harness over a full partition.
func mustSharded(t testing.TB, users []*pref.Profile, clusters []core.Cluster, workers int, ctr *stats.Counters) *core.Sharded {
	t.Helper()
	s, err := core.NewSharded(users, clusters, nil, workers, ctr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
