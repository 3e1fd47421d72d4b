package core_test

import (
	"iter"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// buildFTV constructs a fresh exact filter-then-verify engine over the
// laptops fixture, reading alive as its alive objects: the standalone
// engine for workers == 1, the sharded harness above that.
func buildFTV(t *testing.T, l *fixtures.Laptops, workers int, ctr *stats.Counters, alive iter.Seq[object.Object]) interface {
	core.Monitor
	core.StateEngine
	Targets(objID int) []int
} {
	users := []*pref.Profile{l.C1.Clone(), l.C2.Clone()}
	clusters := []core.Cluster{
		{Members: []int{0}, Common: l.C1.Clone()},
		{Members: []int{1}, Common: l.C2.Clone()},
	}
	if workers > 1 {
		s, err := core.NewSharded(users, clusters, nil, alive, workers, ctr)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	f := core.NewFilterThenVerify(users, clusters, ctr)
	f.SetAlive(alive)
	return f
}

// totalsOf reads an engine's true counters: the sharded harness
// accumulates comparisons in per-shard counters that only fold in via
// Totals, while sequential engines write ctr directly.
func totalsOf(eng any, ctr *stats.Counters) stats.Counters {
	if t, ok := eng.(interface{ Totals() stats.Counters }); ok {
		return t.Totals()
	}
	return ctr.Snapshot()
}

// TestStateRoundTripFTV processes a stream prefix, captures state,
// restores it into fresh engines under every worker layout, and checks
// the continuation is indistinguishable from the uninterrupted engine —
// frontiers, targets, and even comparison counts.
func TestStateRoundTripFTV(t *testing.T) {
	l := fixtures.NewLaptops()
	half := len(l.Objects) / 2
	for _, srcWorkers := range []int{1, 2} {
		for _, dstWorkers := range []int{1, 2} {
			ctr := &stats.Counters{}
			orig := buildFTV(t, l, srcWorkers, ctr, nil)
			fixtures.Feed(orig, l.Objects[:half])
			st := core.NewEngineState(2, 2)
			orig.CaptureState(st)
			atCapture := totalsOf(orig, ctr)

			restCtr := &stats.Counters{}
			restored := buildFTV(t, l, dstWorkers, restCtr, slices.Values(l.Objects[:half]))
			if err := restored.RestoreState(st); err != nil {
				t.Fatalf("src=%d dst=%d: RestoreState: %v", srcWorkers, dstWorkers, err)
			}
			for _, o := range l.Objects[half:] {
				co, cr := orig.Process(o), restored.Process(o)
				if !reflect.DeepEqual(co, cr) {
					t.Fatalf("src=%d dst=%d: o%d deliveries %v vs %v", srcWorkers, dstWorkers, o.ID+1, co, cr)
				}
			}
			for c := 0; c < 2; c++ {
				if !reflect.DeepEqual(fixtures.Sorted(orig.UserFrontier(c)), fixtures.Sorted(restored.UserFrontier(c))) {
					t.Errorf("src=%d dst=%d: user %d frontier mismatch", srcWorkers, dstWorkers, c)
				}
			}
			for id := range l.Objects {
				if !reflect.DeepEqual(orig.Targets(id), restored.Targets(id)) {
					t.Errorf("src=%d dst=%d: targets of o%d mismatch", srcWorkers, dstWorkers, id+1)
				}
			}
			tail := totalsOf(orig, ctr)
			if got, want := totalsOf(restored, restCtr).Comparisons, tail.Comparisons-atCapture.Comparisons; got != want {
				t.Errorf("src=%d dst=%d: continuation comparisons %d, uninterrupted tail did %d", srcWorkers, dstWorkers, got, want)
			}
		}
	}
}

// TestStateRoundTripBaseline does the same for the per-user engine.
func TestStateRoundTripBaseline(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1.Clone(), l.C2.Clone()}
	half := len(l.Objects) / 2
	orig := core.NewBaseline(users, nil)
	fixtures.Feed(orig, l.Objects[:half])
	st := core.NewEngineState(2, 0)
	orig.CaptureState(st)

	restored, err := core.NewSharded([]*pref.Profile{l.C1.Clone(), l.C2.Clone()}, nil, nil, slices.Values(l.Objects[:half]), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for _, o := range l.Objects[half:] {
		if co, cr := orig.Process(o), restored.Process(o); !reflect.DeepEqual(co, cr) {
			t.Fatalf("o%d deliveries %v vs %v", o.ID+1, co, cr)
		}
	}
	for c := 0; c < 2; c++ {
		if !reflect.DeepEqual(fixtures.Sorted(orig.UserFrontier(c)), fixtures.Sorted(restored.UserFrontier(c))) {
			t.Errorf("user %d frontier mismatch", c)
		}
	}
}

// TestStateRestoreRejectsWrongGeometry pins that restoring state from a
// differently sized deployment fails instead of corrupting silently.
func TestStateRestoreRejectsWrongGeometry(t *testing.T) {
	l := fixtures.NewLaptops()
	eng := core.NewBaseline([]*pref.Profile{l.C1.Clone(), l.C2.Clone()}, nil)
	if err := eng.RestoreState(core.NewEngineState(3, 0)); err == nil {
		t.Fatal("restoring 3-user state into 2-user engine succeeded")
	}
	ftv := buildFTV(t, l, 1, nil, nil)
	if err := ftv.RestoreState(core.NewEngineState(2, 5)); err == nil {
		t.Fatal("restoring 5-cluster state into 2-cluster engine succeeded")
	}
}
