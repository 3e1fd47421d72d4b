package window_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

type swEngine interface {
	Process(o object.Object) []int
	UserFrontier(c int) []int
	Targets(objID int) []int
	core.StateEngine
}

// stateStream cycles the laptop objects into a longer stream so the
// window wraps and expiry/mending state is non-trivial at capture time.
func stateStream(l *fixtures.Laptops, n int) []object.Object {
	out := make([]object.Object, n)
	for i := range out {
		base := l.Objects[i%len(l.Objects)]
		out[i] = object.Object{ID: i, Attrs: base.Attrs}
	}
	return out
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

// TestStateRoundTripWindow checks, for both sliding-window engines and
// across worker layouts, that capture + restore mid-stream leaves the
// continuation identical to the uninterrupted engine: deliveries,
// frontiers, targets, and comparison counts (which depend on buffer order
// surviving exactly).
func TestStateRoundTripWindow(t *testing.T) {
	l := fixtures.NewLaptops()
	const w = 7
	stream := stateStream(l, 40)
	cut := 23 // past three windows

	build := map[string]func(workers int, ctr *stats.Counters) swEngine{
		"baselineSW": func(workers int, ctr *stats.Counters) swEngine {
			users := []*pref.Profile{l.C1.Clone(), l.C2.Clone()}
			if workers > 1 {
				return mustSharded(t, users, nil, w, workers, ctr)
			}
			return window.NewBaselineSW(users, w, ctr)
		},
		"ftvSW": func(workers int, ctr *stats.Counters) swEngine {
			users := []*pref.Profile{l.C1.Clone(), l.C2.Clone()}
			clusters := []core.Cluster{
				{Members: []int{0}, Common: l.C1.Clone()},
				{Members: []int{1}, Common: l.C2.Clone()},
			}
			if workers > 1 {
				return mustSharded(t, users, clusters, w, workers, ctr)
			}
			return window.NewFilterThenVerifySW(users, clusters, w, ctr)
		},
	}
	clustersOf := map[string]int{"baselineSW": 0, "ftvSW": 2}

	for name, mk := range build {
		for _, srcWorkers := range []int{1, 2} {
			for _, dstWorkers := range []int{1, 2} {
				ctr := &stats.Counters{}
				orig := mk(srcWorkers, ctr)
				fixtures.Feed(orig, stream[:cut])
				st := core.NewEngineState(2, clustersOf[name])
				orig.CaptureState(st)
				atCapture := totalsOf(orig, ctr)

				restCtr := &stats.Counters{}
				restored := mk(dstWorkers, restCtr)
				if err := restored.RestoreState(st); err != nil {
					t.Fatalf("%s src=%d dst=%d: RestoreState: %v", name, srcWorkers, dstWorkers, err)
				}
				for _, o := range stream[cut:] {
					co, cr := orig.Process(o), restored.Process(o)
					if !reflect.DeepEqual(co, cr) {
						t.Fatalf("%s src=%d dst=%d: object %d deliveries %v vs %v", name, srcWorkers, dstWorkers, o.ID, co, cr)
					}
				}
				for c := 0; c < 2; c++ {
					if !reflect.DeepEqual(fixtures.Sorted(orig.UserFrontier(c)), fixtures.Sorted(restored.UserFrontier(c))) {
						t.Errorf("%s src=%d dst=%d: user %d frontier mismatch", name, srcWorkers, dstWorkers, c)
					}
				}
				for _, o := range stream {
					if !reflect.DeepEqual(orig.Targets(o.ID), restored.Targets(o.ID)) {
						t.Errorf("%s src=%d dst=%d: targets of %d mismatch", name, srcWorkers, dstWorkers, o.ID)
					}
				}
				tail := totalsOf(orig, ctr)
				if got, want := totalsOf(restored, restCtr).Comparisons, tail.Comparisons-atCapture.Comparisons; got != want {
					t.Errorf("%s src=%d dst=%d: continuation comparisons %d, uninterrupted tail did %d",
						name, srcWorkers, dstWorkers, got, want)
				}
			}
		}
	}
}

// TestStateWindowRejectsForeignState pins the guard against restoring
// append-only state into a windowed engine.
func TestStateWindowRejectsForeignState(t *testing.T) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1.Clone(), l.C2.Clone()}
	eng := window.NewBaselineSW(users, 4, nil)
	if err := eng.RestoreState(core.NewEngineState(2, 0)); err == nil {
		t.Fatal("restoring ring-less state into a windowed engine succeeded")
	}
}

// mustSharded builds the windowed harness over a full partition.
func mustSharded(t *testing.T, users []*pref.Profile, clusters []core.Cluster, w, workers int, ctr *stats.Counters) *core.Sharded {
	t.Helper()
	s, err := window.NewSharded(users, clusters, nil, nil, w, workers, true, ctr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
