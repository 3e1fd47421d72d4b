package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
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
		if !reflect.DeepEqual(fixtures.Sorted(seq.UserFrontier(c)), fixtures.Sorted(par.UserFrontier(c))) {
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
			if _, err := core.NewSharded(users, tc.clusters, tc.active, nil, workers, nil); err == nil {
				t.Errorf("%s, workers=%d: bad partition accepted", name, workers)
			}
		}
	}
	// Removed users and dormant clusters are not a bad partition.
	ok := []core.Cluster{{Members: []int{0}, Common: l.C1.Clone()}, {}}
	if _, err := core.NewSharded(users, ok, []bool{true, false}, nil, 2, nil); err != nil {
		t.Errorf("evolved community refused: %v", err)
	}
}

// Randomized equivalence across worker counts, cluster shapes, and
// object streams.
func TestQuickParallelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users, objs := fixtures.RandomWorld(r, 6, 2, 5, 40, 5)
		clusters := []core.Cluster{
			{Members: []int{0, 1}, Common: pref.Common([]*pref.Profile{users[0], users[1]})},
			{Members: []int{2}, Common: users[2].Clone()},
			{Members: []int{3, 4, 5}, Common: pref.Common([]*pref.Profile{users[3], users[4], users[5]})},
		}
		workers := 1 + r.Intn(4)
		seq := core.NewFilterThenVerify(users, clusters, nil)
		par, err := core.NewSharded(users, clusters, nil, nil, workers, nil)
		if err != nil {
			return false
		}
		for _, o := range objs {
			if !reflect.DeepEqual(seq.Process(o), par.Process(o)) {
				return false
			}
		}
		for c := range users {
			if !reflect.DeepEqual(fixtures.Sorted(seq.UserFrontier(c)), fixtures.Sorted(par.UserFrontier(c))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestProcessBatchMatchesProcess drives two harnesses of one shape over
// one stream — one through Process object by object, the other through
// ProcessBatch's fork-join in batches of varying size — and requires the
// same C_o for every object, the same frontiers and the same work
// counters, at every shard count including one. Batch sizes shrink and
// grow, empty included, so every shard's arena is reused at lengths
// above and below its high-water mark; the results are compared only
// after the last batch, because the per-object slices are the caller's
// to keep.
func TestProcessBatchMatchesProcess(t *testing.T) {
	type build func(users []*pref.Profile, clusters []core.Cluster, workers int, ctr *stats.Counters) (*core.Sharded, error)
	builds := []struct {
		name  string
		build build
	}{
		{"Baseline", func(u []*pref.Profile, _ []core.Cluster, w int, c *stats.Counters) (*core.Sharded, error) {
			return core.NewSharded(u, nil, nil, nil, w, c)
		}},
		{"BaselinePerObject", func(u []*pref.Profile, _ []core.Cluster, w int, c *stats.Counters) (*core.Sharded, error) {
			return core.NewShardedPerObject(u, nil, nil, nil, w, c)
		}},
		{"FTV", func(u []*pref.Profile, cl []core.Cluster, w int, c *stats.Counters) (*core.Sharded, error) {
			return core.NewSharded(u, cl, nil, nil, w, c)
		}},
		{"FTVPerObject", func(u []*pref.Profile, cl []core.Cluster, w int, c *stats.Counters) (*core.Sharded, error) {
			return core.NewShardedPerObject(u, cl, nil, nil, w, c)
		}},
		{"BaselineSW", func(u []*pref.Profile, _ []core.Cluster, w int, c *stats.Counters) (*core.Sharded, error) {
			return window.NewSharded(u, nil, nil, nil, 16, w, true, c)
		}},
		{"FTV-SW", func(u []*pref.Profile, cl []core.Cluster, w int, c *stats.Counters) (*core.Sharded, error) {
			return window.NewSharded(u, cl, nil, nil, 16, w, true, c)
		}},
	}
	sizes := []int{7, 1, 0, 13, 2, 30, 5}
	for _, b := range builds {
		for workers := 1; workers <= 4; workers++ {
			t.Run(fmt.Sprintf("%s/workers%d", b.name, workers), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(workers)))
				users, objs := fixtures.RandomWorld(r, 8, 2, 5, 150, 5)
				common := func(ms ...int) core.Cluster {
					ps := make([]*pref.Profile, len(ms))
					for i, c := range ms {
						ps[i] = users[c]
					}
					return core.Cluster{Members: ms, Common: pref.Common(ps)}
				}
				clusters := []core.Cluster{common(0, 1), common(2), common(3, 4, 5), common(6, 7)}
				seqCtr, batCtr := &stats.Counters{}, &stats.Counters{}
				seq, err := b.build(users, clusters, workers, seqCtr)
				if err != nil {
					t.Fatal(err)
				}
				bat, err := b.build(users, clusters, workers, batCtr)
				if err != nil {
					t.Fatal(err)
				}
				if bat.Shards() != workers {
					t.Fatalf("Shards = %d, want %d", bat.Shards(), workers)
				}
				var want, got [][]int
				for i, k := 0, 0; i < len(objs); k++ {
					batch := objs[i:min(i+sizes[k%len(sizes)], len(objs))]
					for _, o := range batch {
						want = append(want, seq.Process(o))
					}
					got = append(got, bat.ProcessBatch(batch)...)
					i += len(batch)
				}
				for j := range objs {
					if !reflect.DeepEqual(want[j], got[j]) {
						t.Fatalf("o%d: Process %v vs ProcessBatch %v", j, want[j], got[j])
					}
				}
				for c := range users {
					if !reflect.DeepEqual(fixtures.Sorted(seq.UserFrontier(c)), fixtures.Sorted(bat.UserFrontier(c))) {
						t.Errorf("user %d frontier mismatch", c)
					}
				}
				if st, bt := seq.Totals(), bat.Totals(); st != bt || bt.Processed != uint64(len(objs)) {
					t.Errorf("totals: Process %+v vs ProcessBatch %+v (%d objects)", st, bt, len(objs))
				}
			})
		}
	}
}

// mustSharded builds the append-only harness over a full partition.
func mustSharded(t testing.TB, users []*pref.Profile, clusters []core.Cluster, workers int, ctr *stats.Counters) *core.Sharded {
	t.Helper()
	s, err := core.NewSharded(users, clusters, nil, nil, workers, ctr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
