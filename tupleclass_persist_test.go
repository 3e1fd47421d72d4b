package paretomon

// Persistence across the tuple-class change. A snapshot spells every
// frontier out object by object (EngineState, codec v3), the engines keep
// one member per attribute tuple: CaptureState expands, RestoreState
// collapses and rebuilds the class table from the alive registry. These
// tests hold the seam from both sides — a snapshot the parent commit
// wrote restores, a duplicate-free history snapshots to the parent's very
// bytes, and a monitor reopened from a snapshot answers the twin of a
// dominated tuple for free. The simulator (sim_test.go) holds reopened
// monitors and followers to an uninterrupted one over whole dup-heavy
// histories.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// walRecords is the number of WAL records a history appends: one per
// object, one per lifecycle operation.
func walRecords(ops []dupOp) (n uint64) {
	for _, op := range ops {
		n += uint64(max(len(op.objs), 1))
	}
	return n
}

// replayBoth applies ops to both monitors and insists on equal deliveries.
func replayBoth(t *testing.T, a, b *Monitor, ops []dupOp) {
	t.Helper()
	for _, op := range ops {
		da, errA := applyDupOp(a, op)
		db, errB := applyDupOp(b, op)
		if errA != nil || errB != nil {
			t.Fatalf("%v: %v / %v", op, errA, errB)
		}
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("%v: deliveries %v vs %v", op, da, db)
		}
	}
}

// sameReads compares every frontier and every C_o of two monitors.
func sameReads(t *testing.T, label string, want, got *Monitor) {
	t.Helper()
	if uw, ug := want.Users(), got.Users(); !reflect.DeepEqual(uw, ug) {
		t.Fatalf("%s: users %v, want %v", label, ug, uw)
	}
	for _, u := range want.Users() {
		fw, _ := want.Frontier(u)
		fg, _ := got.Frontier(u)
		if !reflect.DeepEqual(fw, fg) {
			t.Errorf("%s: frontier of %s is %v, want %v", label, u, fg, fw)
		}
	}
	for id := 0; id < want.ObjectCount(); id++ {
		name := fmt.Sprintf("o%04d", id)
		if want.HasObject(name) != got.HasObject(name) {
			t.Fatalf("%s: %s alive on one side only", label, name)
		}
		if !want.HasObject(name) {
			continue
		}
		tw, _ := want.TargetsOf(name)
		tg, _ := got.TargetsOf(name)
		if !reflect.DeepEqual(tw, tg) {
			t.Errorf("%s: C_%s is %v, want %v", label, name, tg, tw)
		}
	}
}

// parentSnapshotHistory is the history behind testdata/snapshot_parent_83a22ee.bin:
// the first parentSnapshotAt operations of it ran on a FilterThenVerify
// monitor (three clusters, one worker) built from the parent commit, which
// then wrote the snapshot. Twins sit interleaved in its frontier lists,
// each a member of its own — what no monitor since would capture.
const parentSnapshotAt = 120

func parentSnapshotHistory() ([]string, map[string][]Preference, []dupOp) {
	return dupHistory(41, 200)
}

func TestParentSnapshotRestores(t *testing.T) {
	// Frontiers are equal as sets, not as lists: the parent evicted twins
	// one swap-delete at a time, so its scan order is not the one classes
	// arrive at and the two monitors may meet a dominator a comparison
	// apart. Deliveries and reads must agree.
	restoresParentSnapshot(t, "testdata/snapshot_parent_83a22ee.bin",
		WithAlgorithm(AlgorithmFilterThenVerify), WithClusterCount(3))
}

// TestParentWindowSnapshotRestores is the same seam for the window
// engines' shields: testdata/snapshot_window_parent_87ee045.bin was
// written by the commit before the buffers had any (FilterThenVerifySW,
// three clusters, window 24, one worker, the same history and cut). A
// snapshot spells out a buffer's entries and nothing else, so the codec
// did not move; the shields are re-derived on restore, and frontiers, C_o
// and every later delivery are those of a monitor that never stopped.
func TestParentWindowSnapshotRestores(t *testing.T) {
	restoresParentSnapshot(t, "testdata/snapshot_window_parent_87ee045.bin",
		WithAlgorithm(AlgorithmFilterThenVerify), WithClusterCount(3), WithWindow(24))
}

// restoresParentSnapshot opens a monitor over a snapshot an earlier commit
// wrote parentSnapshotAt operations into parentSnapshotHistory, and holds
// it to a monitor of this commit that ran those operations itself: same
// reads, same deliveries for the rest of the history, same reads again.
func restoresParentSnapshot(t *testing.T, file string, opts ...Option) {
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	users, asserted, ops := parentSnapshotHistory()
	opts = opts[:len(opts):len(opts)]
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref, err := NewMonitor(dupSpace.community(t, users, asserted), append(opts, WithWorkers(workers))...)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for _, op := range ops[:parentSnapshotAt] {
				if _, err := applyDupOp(ref, op); err != nil {
					t.Fatalf("%v: %v", op, err)
				}
			}

			store := NewMemStore()
			if err := store.WriteSnapshot(walRecords(ops[:parentSnapshotAt]), body); err != nil {
				t.Fatal(err)
			}
			got, err := NewMonitor(dupSpace.community(t, users, asserted), append(opts, WithWorkers(workers), WithStore(store))...)
			if err != nil {
				t.Fatalf("restoring the parent's snapshot: %v", err)
			}
			defer got.Close()
			sameReads(t, "restored", ref, got)
			replayBoth(t, ref, got, ops[parentSnapshotAt:])
			sameReads(t, "continued", ref, got)
		})
	}
}

// TestDistinctHistoryCostsWhatItDid is the table's bill where it has
// nothing to offer: on a history in which no arrival repeats a tuple,
// every class has one member, and the monitor must do the parent's
// comparisons, keep the parent's frontiers in the parent's scan order and
// therefore write the parent's snapshot, byte for byte. The sums and
// counts were recorded at the parent commit (83a22ee) with this function;
// the windowed rows (window 24; the history's removals of expired objects
// are refused) were recorded at b345bff, where every shard still kept a
// private copy of the window.
func TestDistinctHistoryCostsWhatItDid(t *testing.T) {
	cases := []struct {
		name        string
		opts        []Option
		snapshot    string // sha256 of the snapshot body
		comparisons uint64
	}{
		{"Baseline", []Option{WithAlgorithm(AlgorithmBaseline)},
			"4634e7728159163c2ed3bcb8f458dc10c45c9a421ab05708d8414766e987c571", 29052},
		{"FTV", []Option{WithAlgorithm(AlgorithmFilterThenVerify), WithClusterCount(3)},
			"9c02c481f1ddd46c1cb708af5c6c6921f7750c9204a3f098f3c5d62c405ee3b2", 51386},
		{"BaselineSW", []Option{WithAlgorithm(AlgorithmBaseline), WithWindow(24)},
			"bebabdfe98953582dd14ae9cd51a705ca6053911c30366a0b69b722d6c2b310b", 15633},
		{"FTV-SW", []Option{WithAlgorithm(AlgorithmFilterThenVerify), WithClusterCount(3), WithWindow(24)},
			"d2b6de2c7f03b82de7e5c6433ee22771a63c8d7aeab9b512c54ef4618a8e66f9", 15807},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				users, asserted, ops := wideSpace.history(5, 400, true)
				store := NewMemStore()
				m, err := NewMonitor(wideSpace.community(t, users, asserted),
					append(tc.opts[:len(tc.opts):len(tc.opts)], WithWorkers(workers), WithStore(store))...)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				for _, op := range ops {
					if _, err := applyDupOp(m, op); err != nil {
						t.Fatalf("%v: %v", op, err)
					}
				}
				if err := m.Snapshot(); err != nil {
					t.Fatal(err)
				}
				_, body, ok, err := store.LoadSnapshot()
				if err != nil || !ok {
					t.Fatalf("LoadSnapshot: %v, %v", ok, err)
				}
				st := m.Stats()
				if sum := fmt.Sprintf("%x", sha256.Sum256(body)); sum != tc.snapshot || st.Comparisons != tc.comparisons {
					t.Errorf("snapshot %s after %d comparisons, the parent commit wrote %s after %d",
						sum, st.Comparisons, tc.snapshot, tc.comparisons)
				}
				if st.Twins != 0 || st.Processed < 70 {
					t.Errorf("%d of %d arrivals were twins; the history should have none in about eighty", st.Twins, st.Processed)
				}
			})
		}
	}
}

// TestRecoveredMonitorKnowsDominatedTuples is the reason RestoreState
// takes the alive registry, in the small: a snapshot names frontier
// members only, yet the arrival after a reopen that repeats a dominated
// tuple must cost what it costs an uninterrupted monitor — nothing.
func TestRecoveredMonitorKnowsDominatedTuples(t *testing.T) {
	users := []string{"ann", "bob"}
	asserted := map[string][]Preference{
		"ann": {{Attr: "a", Better: "a0", Worse: "a1"}},
		"bob": {{Attr: "a", Better: "a0", Worse: "a1"}, {Attr: "b", Better: "b0", Worse: "b1"}},
	}
	for _, tc := range exactAppendOnly {
		t.Run(tc.name, func(t *testing.T) {
			store := NewMemStore()
			opts := append(tc.opts[:1:1], WithBranchCut(1000), WithStore(store))
			m1, err := NewMonitor(dupSpace.community(t, users, asserted), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer m1.Close()
			for _, o := range []Object{
				{Name: "top", Values: []string{"a0", "b0", "c0"}},
				{Name: "x1", Values: []string{"a1", "b0", "c0"}}, // dominated for ann and for bob
			} {
				if _, err := m1.Add(o.Name, o.Values...); err != nil {
					t.Fatal(err)
				}
			}
			if err := m1.Snapshot(); err != nil {
				t.Fatal(err)
			}
			m2, err := NewMonitor(dupSpace.community(t, users, asserted), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			before := m2.Stats()
			d, err := m2.Add("x2", "a1", "b0", "c0")
			if err != nil || len(d.Users) != 0 {
				t.Fatalf("x2 delivered to %v (%v), want nobody", d.Users, err)
			}
			if after := m2.Stats(); after.Comparisons != before.Comparisons || after.Twins != before.Twins+1 {
				t.Fatalf("the twin of a dominated tuple cost %d comparisons and counted %d twins after recovery, want 0 and 1",
					after.Comparisons-before.Comparisons, after.Twins-before.Twins)
			}
			if err := m2.RemoveObject("top"); err != nil {
				t.Fatal(err)
			}
			for _, u := range users {
				if f, _ := m2.Frontier(u); !reflect.DeepEqual(f, []string{"x1", "x2"}) {
					t.Errorf("frontier of %s after removing the dominator: %v, want [x1 x2]", u, f)
				}
			}
		})
	}
}
