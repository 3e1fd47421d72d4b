package paretomon_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	paretomon "repro"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/storage"
)

// persistCommunity builds a deterministic 6-user community over three
// attributes with varied chain preferences, plus a scripted mutation
// sequence (single adds, batches, online preference updates) driven by
// a fixed seed.
func persistCommunity(t *testing.T) *paretomon.Community {
	t.Helper()
	s := paretomon.NewSchema("color", "brand", "size")
	com := paretomon.NewCommunity(s)
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"color", "brand", "size"}
	for u := 0; u < 6; u++ {
		user, err := com.AddUser(fmt.Sprintf("u%d", u))
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range attrs {
			vals := persistValues(attr)
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			if err := user.PreferChain(attr, vals[:4]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return com
}

func persistValues(attr string) []string {
	out := make([]string, 6)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", attr[:1], i)
	}
	return out
}

// persistOp is one scripted mutation: a batch of objects, or (when
// batch is nil) an online preference update.
type persistOp struct {
	batch []paretomon.Object
	pref  [4]string // user, attr, better, worse
}

func persistScript(steps int) []persistOp {
	rng := rand.New(rand.NewSource(11))
	attrs := []string{"color", "brand", "size"}
	var ops []persistOp
	next := 0
	for i := 0; i < steps; i++ {
		if rng.Intn(10) < 7 {
			n := 1 + rng.Intn(4)
			batch := make([]paretomon.Object, n)
			for j := range batch {
				batch[j] = paretomon.Object{
					Name: fmt.Sprintf("o%d", next),
					Values: []string{
						fmt.Sprintf("c%d", rng.Intn(6)),
						fmt.Sprintf("b%d", rng.Intn(6)),
						fmt.Sprintf("s%d", rng.Intn(6)),
					},
				}
				next++
			}
			ops = append(ops, persistOp{batch: batch})
			continue
		}
		attr := attrs[rng.Intn(len(attrs))]
		b, w := rng.Intn(6), rng.Intn(6)
		if b == w {
			w = (w + 1) % 6
		}
		ops = append(ops, persistOp{pref: [4]string{
			fmt.Sprintf("u%d", rng.Intn(6)), attr,
			fmt.Sprintf("%s%d", attr[:1], b), fmt.Sprintf("%s%d", attr[:1], w),
		}})
	}
	return ops
}

// applyOps drives a monitor through script ops [from, to). Single-object
// batches go through Add to exercise both ingestion paths. Preference
// updates may legitimately be rejected (cycles); both monitors under
// comparison must agree, which applyOps asserts by returning the error
// outcomes.
func applyOps(t *testing.T, m *paretomon.Monitor, ops []persistOp, from, to int) []bool {
	t.Helper()
	outcomes := make([]bool, 0, to-from)
	for _, op := range ops[from:to] {
		if op.batch != nil {
			var err error
			if len(op.batch) == 1 {
				_, err = m.Add(op.batch[0].Name, op.batch[0].Values...)
			} else {
				_, err = m.AddBatch(op.batch)
			}
			if err != nil {
				t.Fatalf("ingesting %v: %v", op.batch, err)
			}
			outcomes = append(outcomes, true)
			continue
		}
		err := m.AddPreference(op.pref[0], op.pref[1], op.pref[2], op.pref[3])
		if err != nil && !errors.Is(err, paretomon.ErrCycle) {
			t.Fatalf("AddPreference%v: %v", op.pref, err)
		}
		outcomes = append(outcomes, err == nil)
	}
	return outcomes
}

// crashLayout is one input of the crash-recovery suites: the worker
// count the monitor crashes under and the one it reopens under. Engine
// state is keyed by users and clusters, never by shards, so a restart
// may change WithWorkers.
type crashLayout struct{ crash, reopen int }

var crashLayouts = []crashLayout{{1, 1}, {3, 3}, {1, 3}, {3, 1}}

func (l crashLayout) String() string {
	if l.crash == l.reopen {
		return fmt.Sprint(l.crash)
	}
	return fmt.Sprintf("%dto%d", l.crash, l.reopen)
}

// TestExplicitSnapshotReopen covers the tentpole's happy path: open,
// ingest, snapshot, reopen from the snapshot alone (the WAL behind it
// is pruned), verify the frontier and counters carried over.
func TestExplicitSnapshotReopen(t *testing.T) {
	com := persistCommunity(t)
	dir := t.TempDir()
	ops := persistScript(20)

	m1, err := paretomon.Open(com, dir)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m1, ops, 0, len(ops))
	if err := m1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st, err := m1.StorageStats()
	if err != nil {
		t.Fatalf("StorageStats: %v", err)
	}
	if st.Snapshots == 0 || st.SnapshotBytes == 0 {
		t.Fatalf("no snapshot on disk: %+v", st)
	}
	wantStats := m1.Stats()
	wantFrontier, err := m1.Frontier("u0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := paretomon.Open(com, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	gotFrontier, err := m2.Frontier("u0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFrontier, wantFrontier) {
		t.Errorf("frontier after reopen: %v, want %v", gotFrontier, wantFrontier)
	}
	if got := m2.Stats(); got.Comparisons != wantStats.Comparisons || got.Processed != wantStats.Processed {
		t.Errorf("stats after reopen: %+v, want %+v", got, wantStats)
	}
	if m2.ObjectCount() != m1.ObjectCount() {
		t.Errorf("ObjectCount after reopen: %d, want %d", m2.ObjectCount(), m1.ObjectCount())
	}
}

// TestSubscribeAfterRecovery is the regression test for replayed
// deliveries: subscriptions created after recovery must observe only
// post-recovery arrivals, never the replayed history.
func TestSubscribeAfterRecovery(t *testing.T) {
	com := persistCommunity(t)
	store := paretomon.NewMemStore()
	m1, err := paretomon.NewMonitor(com, paretomon.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m1.Add(fmt.Sprintf("h%d", i), "c0", "b0", "s0"); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := paretomon.NewMonitor(com, paretomon.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m2.Subscribe("u0")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case d := <-ch:
		t.Fatalf("subscriber received replayed delivery %+v", d)
	default:
	}
	d, err := m2.Add("fresh", "c1", "b1", "s1")
	if err != nil {
		t.Fatal(err)
	}
	deliversToU0 := false
	for _, u := range d.Users {
		if u == "u0" {
			deliversToU0 = true
		}
	}
	if !deliversToU0 {
		t.Fatalf("test premise broken: fresh object not delivered to u0 (%v)", d.Users)
	}
	got := <-ch
	if got.Object != "fresh" {
		t.Fatalf("first post-recovery delivery is %q, want \"fresh\"", got.Object)
	}
	if st := m2.Stats(); st.DroppedDeliveries != 0 {
		t.Errorf("DroppedDeliveries = %d after recovery, want 0", st.DroppedDeliveries)
	}
}

// TestRecoveryRejectsMismatchedSetup pins ErrStateMismatch: a snapshot
// written under one configuration or community must not restore into
// another. A WAL-only store, by contrast, holds raw inputs and may be
// legitimately rebuilt under a new configuration.
func TestRecoveryRejectsMismatchedSetup(t *testing.T) {
	com := persistCommunity(t)
	store := paretomon.NewMemStore()
	ftv := []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(1.2), paretomon.WithStore(store)}
	m1, err := paretomon.NewMonitor(com, ftv...)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m1, persistScript(10), 0, 10)
	if err := m1.Snapshot(); err != nil {
		t.Fatal(err)
	}

	_, err = paretomon.NewMonitor(com,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithStore(store))
	if !errors.Is(err, paretomon.ErrStateMismatch) {
		t.Fatalf("algorithm change over snapshot: got %v, want ErrStateMismatch", err)
	}

	bigger := persistCommunity(t)
	if _, err := bigger.AddUser("u6"); err != nil {
		t.Fatal(err)
	}
	_, err = paretomon.NewMonitor(bigger, ftv...)
	if !errors.Is(err, paretomon.ErrStateMismatch) {
		t.Fatalf("community change over snapshot: got %v, want ErrStateMismatch", err)
	}

	// WAL-only: a config change rebuilds from raw inputs instead.
	walOnly := paretomon.NewMemStore()
	m2, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(1.2), paretomon.WithStore(walOnly))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m2, persistScript(10), 0, 10)
	m3, err := paretomon.NewMonitor(com,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithStore(walOnly))
	if err != nil {
		t.Fatalf("WAL-only rebuild under new algorithm: %v", err)
	}
	if m3.Stats().Processed != m2.Stats().Processed {
		t.Errorf("WAL-only rebuild lost objects: %d vs %d", m3.Stats().Processed, m2.Stats().Processed)
	}
}

// storeFiles lists the store directory's files matching a prefix.
func storeFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestRecoveryCorruptionHandling drives the documented corruption
// policy end to end against real files: a torn WAL tail recovers the
// surviving prefix, a deleted newest snapshot falls back to the older
// one, and an unreadable snapshot set refuses with ErrCorrupt.
func TestRecoveryCorruptionHandling(t *testing.T) {
	com := persistCommunity(t)
	ops := persistScript(24)

	t.Run("torn WAL tail", func(t *testing.T) {
		dir := t.TempDir()
		m1, err := paretomon.Open(com, dir)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, m1, ops, 0, len(ops))
		processed := m1.Stats().Processed
		m1.Close()
		segs := storeFiles(t, dir, "wal-")
		if len(segs) == 0 {
			t.Fatal("no WAL segments")
		}
		last := segs[len(segs)-1]
		data, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(last, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		m2, err := paretomon.Open(com, dir)
		if err != nil {
			t.Fatalf("recovery over torn tail: %v", err)
		}
		defer m2.Close()
		got := m2.Stats().Processed
		if got == 0 || got >= processed {
			t.Errorf("recovered %d objects; want a non-empty strict prefix of %d", got, processed)
		}
	})

	t.Run("deleted newest snapshot", func(t *testing.T) {
		dir := t.TempDir()
		m1, err := paretomon.Open(com, dir)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, m1, ops, 0, len(ops)/2)
		if err := m1.Snapshot(); err != nil {
			t.Fatal(err)
		}
		applyOps(t, m1, ops, len(ops)/2, len(ops))
		if err := m1.Snapshot(); err != nil {
			t.Fatal(err)
		}
		want, err := m1.Frontier("u1")
		if err != nil {
			t.Fatal(err)
		}
		processed := m1.Stats().Processed
		m1.Close()
		snaps := storeFiles(t, dir, "snap-")
		if len(snaps) != 2 {
			t.Fatalf("expected 2 retained snapshots, found %d", len(snaps))
		}
		if err := os.Remove(snaps[len(snaps)-1]); err != nil {
			t.Fatal(err)
		}
		m2, err := paretomon.Open(com, dir)
		if err != nil {
			t.Fatalf("fallback recovery: %v", err)
		}
		defer m2.Close()
		if got := m2.Stats().Processed; got != processed {
			t.Errorf("recovered %d objects, want %d", got, processed)
		}
		if got, _ := m2.Frontier("u1"); !reflect.DeepEqual(got, want) {
			t.Errorf("frontier after fallback: %v, want %v", got, want)
		}
	})

	// A snapshot that decodes but whose cluster list no longer partitions
	// the alive users must be refused at reopen: accepted, the omitted
	// user would own no frontier and the first read of it would panic
	// under the read lock.
	t.Run("snapshot clusters not a partition", func(t *testing.T) {
		doctor := map[string]func(clusters [][]int){
			"omitted member":    func(cl [][]int) { cl[0] = cl[0][1:] },
			"duplicated member": func(cl [][]int) { cl[0] = append(cl[0], cl[0][0]) },
		}
		for name, edit := range doctor {
			for _, workers := range []int{1, 2} {
				store := paretomon.NewMemStore()
				opts := []paretomon.Option{paretomon.WithBranchCut(1.2), paretomon.WithWorkers(workers), paretomon.WithStore(store)}
				m1, err := paretomon.NewMonitor(com, opts...)
				if err != nil {
					t.Fatal(err)
				}
				applyOps(t, m1, ops, 0, len(ops))
				if err := m1.Snapshot(); err != nil {
					t.Fatal(err)
				}
				if got := m1.Stats().Workers; got != workers {
					t.Fatalf("community clusters into %d shard(s), want %d", got, workers)
				}
				seq, body, ok, err := store.LoadSnapshot()
				if err != nil || !ok {
					t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
				}
				snap, err := storage.UnmarshalSnapshot(body)
				if err != nil {
					t.Fatal(err)
				}
				edit(snap.Clusters)
				if err := store.WriteSnapshot(seq, snap.Marshal()); err != nil {
					t.Fatal(err)
				}
				if _, err := paretomon.NewMonitor(com, opts...); !errors.Is(err, paretomon.ErrCorrupt) {
					t.Errorf("%s, workers=%d: reopen err = %v, want ErrCorrupt", name, workers, err)
				}
			}
		}
	})

	// A snapshot whose buffer list is shorter than the users (windowed
	// Baseline) or the clusters (windowed FilterThenVerify) it is keyed by
	// must be refused at reopen, not indexed past its end.
	t.Run("snapshot buffer lists short", func(t *testing.T) {
		engines := []struct {
			name string
			opts []paretomon.Option
			list func(st *core.EngineState) *[][]object.Object
		}{
			{"baselineSW", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithWindow(8)},
				func(st *core.EngineState) *[][]object.Object { return &st.UserBuffers }},
			{"ftvSW", []paretomon.Option{paretomon.WithBranchCut(1.2), paretomon.WithWindow(8)},
				func(st *core.EngineState) *[][]object.Object { return &st.ClusterBuffers }},
		}
		for _, e := range engines {
			for _, workers := range []int{1, 2} {
				store := paretomon.NewMemStore()
				opts := append([]paretomon.Option{paretomon.WithWorkers(workers), paretomon.WithStore(store)}, e.opts...)
				m1, err := paretomon.NewMonitor(com, opts...)
				if err != nil {
					t.Fatal(err)
				}
				applyOps(t, m1, ops, 0, len(ops))
				if err := m1.Snapshot(); err != nil {
					t.Fatal(err)
				}
				seq, body, ok, err := store.LoadSnapshot()
				if err != nil || !ok {
					t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
				}
				snap, err := storage.UnmarshalSnapshot(body)
				if err != nil {
					t.Fatal(err)
				}
				bufs := e.list(snap.Engine)
				if len(*bufs) < 2 {
					t.Fatalf("%s: the snapshot has %d buffers, want at least 2 to cut", e.name, len(*bufs))
				}
				*bufs = (*bufs)[:1]
				if err := store.WriteSnapshot(seq, snap.Marshal()); err != nil {
					t.Fatal(err)
				}
				if _, err := paretomon.NewMonitor(com, opts...); !errors.Is(err, paretomon.ErrCorrupt) {
					t.Errorf("%s, workers=%d: reopen err = %v, want ErrCorrupt", e.name, workers, err)
				}
			}
		}
	})

	t.Run("all snapshots corrupt", func(t *testing.T) {
		dir := t.TempDir()
		m1, err := paretomon.Open(com, dir)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, m1, ops, 0, len(ops))
		if err := m1.Snapshot(); err != nil {
			t.Fatal(err)
		}
		m1.Close()
		for _, snap := range storeFiles(t, dir, "snap-") {
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(snap, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err = paretomon.Open(com, dir)
		if !errors.Is(err, paretomon.ErrCorrupt) {
			t.Fatalf("all-corrupt snapshots: got %v, want ErrCorrupt", err)
		}
	})
}

// TestPersistenceOptionValidation pins the new options' error cases.
func TestPersistenceOptionValidation(t *testing.T) {
	com := persistCommunity(t)
	if _, err := paretomon.NewMonitor(com, paretomon.WithStore(nil)); !errors.Is(err, paretomon.ErrInvalidConfig) {
		t.Errorf("WithStore(nil): %v", err)
	}
	if _, err := paretomon.NewMonitor(com, paretomon.WithSnapshotEvery(-1)); !errors.Is(err, paretomon.ErrInvalidConfig) {
		t.Errorf("WithSnapshotEvery(-1): %v", err)
	}
	if _, err := paretomon.NewMonitor(com, paretomon.WithSnapshotEvery(5)); !errors.Is(err, paretomon.ErrInvalidConfig) {
		t.Errorf("WithSnapshotEvery without store: %v", err)
	}
	m, err := paretomon.NewMonitor(com)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); !errors.Is(err, paretomon.ErrUnsupported) {
		t.Errorf("Snapshot without store: %v", err)
	}
	if _, err := m.StorageStats(); !errors.Is(err, paretomon.ErrUnsupported) {
		t.Errorf("StorageStats without store: %v", err)
	}
}

// TestCloseOwnedStoreFailsTyped pins the Close contract for Open-built
// monitors: after Close, durable mutations fail with an error wrapping
// ErrMonitorClosed (so the HTTP layer maps it to 503, not 400), while
// reads keep answering.
func TestCloseOwnedStoreFailsTyped(t *testing.T) {
	com := persistCommunity(t)
	m, err := paretomon.Open(com, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("o1", "c0", "b0", "s0"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("o2", "c0", "b0", "s0"); !errors.Is(err, paretomon.ErrMonitorClosed) {
		t.Errorf("Add after Close: %v, want ErrMonitorClosed", err)
	}
	if err := m.AddPreference("u0", "color", "c0", "c1"); !errors.Is(err, paretomon.ErrMonitorClosed) {
		t.Errorf("AddPreference after Close: %v, want ErrMonitorClosed", err)
	}
	if err := m.Snapshot(); !errors.Is(err, paretomon.ErrMonitorClosed) {
		t.Errorf("Snapshot after Close: %v, want ErrMonitorClosed", err)
	}
	if f, err := m.Frontier("u0"); err != nil || len(f) != 1 {
		t.Errorf("Frontier after Close: %v, %v (reads must keep working)", f, err)
	}
}

// TestOpenLockedDirectory pins the single-writer guard end to end: a
// second Open of a live data directory fails with ErrLocked instead of
// corrupting the first monitor's WAL.
func TestOpenLockedDirectory(t *testing.T) {
	com := persistCommunity(t)
	dir := t.TempDir()
	m1, err := paretomon.Open(com, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paretomon.Open(com, dir); !errors.Is(err, paretomon.ErrLocked) {
		t.Fatalf("second Open: got %v, want ErrLocked", err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := paretomon.Open(com, dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	m2.Close()
}

// TestRemoveUserAfterSnapshotRecovery pins a recovery bug: a monitor
// rebuilt from a snapshot shared each cluster's member list with its
// engine, so the first RemoveUser of a clustered user shifted the list
// under the engine and panicked ("user not in any cluster").
func TestRemoveUserAfterSnapshotRecovery(t *testing.T) {
	com := persistCommunity(t)
	store := paretomon.NewMemStore()
	opts := []paretomon.Option{
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithClusterCount(2), paretomon.WithStore(store),
	}
	m1, err := paretomon.NewMonitor(com, opts...)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, m1, persistScript(10), 0, 10)
	if err := m1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m2, err := paretomon.NewMonitor(com, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range com.Users()[:5] {
		if err := m2.RemoveUser(u); err != nil {
			t.Fatalf("RemoveUser(%s): %v", u, err)
		}
	}
	if got, want := m2.Users(), com.Users()[5:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("users %v, want %v", got, want)
	}
}
