package paretomon

// A windowed monitor keeps what it holds per object bounded by the
// window: id N's arrival retires id N-W from the registry, the name index
// and every shard's C_o table, on every path that ingests — live calls,
// recovery and the follower feed.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// assertWindowBounded checks the structural bounds of a windowed monitor:
// at most 2W registry slots, at most W names, and a C_o table span of at
// most 2W on every shard.
func assertWindowBounded(t *testing.T, label string, m *Monitor) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	w := m.cfg.Window
	if n := m.objectCount() - m.objBase; n > 2*w {
		t.Errorf("%s: %d registry slots for a window of %d", label, n, w)
	}
	if n := m.names.n; n > w {
		t.Errorf("%s: %d names for a window of %d", label, n, w)
	}
	for i, span := range m.eng.TargetSpans() {
		if span > 2*w {
			t.Errorf("%s: shard %d's C_o table spans %d keys for a window of %d", label, i, span, w)
		}
	}
}

func TestWindowedStateIsBounded(t *testing.T) {
	const w = 8
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmFilterThenVerify, AlgorithmFilterThenVerifyApprox} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v-SW/workers=%d", alg, workers), func(t *testing.T) {
				com := fuzzCommunity(t)
				cfg := fuzzConfig(0)
				cfg.Algorithm, cfg.Window, cfg.Workers = alg, w, workers
				store := NewMemStore()
				durable := cfg
				durable.Store, durable.SnapshotEvery = store, 37
				m, err := newMonitor(com, durable)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(alg)))
				values := func() []string {
					return []string{fuzzValues[0][rng.Intn(5)], fuzzValues[1][rng.Intn(4)]}
				}
				add := func(name string) {
					t.Helper()
					if _, err := m.Add(name, values()...); err != nil {
						t.Fatalf("Add(%s): %v", name, err)
					}
				}
				// 50 windows of arrivals over 2W names, so every name is
				// reused once its last holder has expired; every fifth
				// arrival removes the one three back, and every seventh is
				// removed and its name taken again at once.
				for i := 0; i < 50*w; i++ {
					name := fmt.Sprintf("o%d", i%(2*w))
					add(name)
					if i%5 == 4 {
						if err := m.RemoveObject(fmt.Sprintf("o%d", (i-3)%(2*w))); err != nil {
							t.Fatalf("removing an in-window object: %v", err)
						}
					}
					if i%7 == 6 {
						if err := m.RemoveObject(name); err != nil {
							t.Fatalf("RemoveObject(%s): %v", name, err)
						}
						add(name)
					}
					assertWindowBounded(t, fmt.Sprintf("after arrival %d", i), m)
				}
				if got := m.ObjectCount(); got < 50*w {
					t.Fatalf("ObjectCount %d after %d arrivals", got, 50*w)
				}

				// A removed-then-reused name outlives its old slot: the
				// old slot's expiry must not take the name from the new one.
				add("reused")
				if err := m.RemoveObject("reused"); err != nil {
					t.Fatal(err)
				}
				add("reused")
				for i := 0; i < w-1; i++ {
					add(fmt.Sprintf("fill%d", i))
				}
				if !m.HasObject("reused") {
					t.Fatal("the expiry of a removed slot freed the name its successor holds")
				}
				if _, err := m.TargetsOf("reused"); err != nil {
					t.Fatalf("TargetsOf(reused): %v", err)
				}

				// An expired object is forgotten; its name may be re-added.
				add("late")
				for i := 0; i < w; i++ {
					add(fmt.Sprintf("tail%d", i))
				}
				if m.HasObject("late") {
					t.Error("HasObject is true for an expired object")
				}
				if _, err := m.TargetsOf("late"); !errors.Is(err, ErrUnknownObject) {
					t.Errorf("TargetsOf of an expired object: %v, want ErrUnknownObject", err)
				}
				if err := m.RemoveObject("late"); !errors.Is(err, ErrUnknownObject) {
					t.Errorf("RemoveObject of an expired object: %v, want ErrUnknownObject", err)
				}
				add("late")
				if !m.HasObject("late") {
					t.Error("a re-added expired name is not held")
				}
				assertWindowBounded(t, "live", m)
				want := viewOf(t, m)

				reopened, err := newMonitor(com, durable)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				assertWindowBounded(t, "reopened", reopened)
				if got := viewOf(t, reopened); !reflect.DeepEqual(got, want) {
					t.Errorf("reopened monitor:\n got %+v\nwant %+v", got, want)
				}

				// A follower bootstraps from the newest snapshot and is fed
				// the WAL tail behind it, record by record.
				seq, body, ok, err := store.LoadSnapshot()
				if err != nil || !ok {
					t.Fatalf("LoadSnapshot: %v, %v", ok, err)
				}
				follower, err := newFollowerMonitor(com, cfg, seq, body, ok)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Replay(seq, follower.applyFeedRecord); err != nil {
					t.Fatalf("feeding the follower: %v", err)
				}
				assertWindowBounded(t, "follower", follower)
				if got := viewOf(t, follower); !reflect.DeepEqual(got, want) {
					t.Errorf("follower:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestObjectSyncUnderWindow syncs a windowed source whose older arrivals
// have expired into a monitor holding no object: the importer
// fast-forwards to the source's base and replays only the window, and
// must then read and deliver as the source does. The stream carries no
// work counters, so those are left out of the comparison.
func TestObjectSyncUnderWindow(t *testing.T) {
	const w = 8
	com := fuzzCommunity(t)
	cfg := fuzzConfig(0)
	cfg.Algorithm, cfg.Window, cfg.Workers = AlgorithmFilterThenVerify, w, 3
	src, err := newMonitor(com, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	object := func(i int) Object {
		return Object{Name: fmt.Sprintf("o%d", i), Values: []string{fuzzValues[0][rng.Intn(5)], fuzzValues[1][rng.Intn(4)]}}
	}
	for i := 0; i < 50; i++ {
		o := object(i)
		if _, err := src.Add(o.Name, o.Values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.RemoveObject("o45"); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := src.ExportObjects(&stream); err != nil {
		t.Fatal(err)
	}
	exported := stream.Bytes()

	store := NewMemStore()
	durable := cfg
	durable.Store = store
	dst, err := newMonitor(com, durable)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.ImportObjects(bytes.NewReader(exported)); err != nil || n != w {
		t.Fatalf("ImportObjects applied %d objects (%v), want the window's %d", n, err, w)
	}
	view := func(m *Monitor) monitorView {
		v := viewOf(t, m)
		v.Applied, v.Counters = 0, [6]uint64{}
		return v
	}
	want := view(src)
	if got := view(dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("synced monitor:\n got %+v\nwant %+v", got, want)
	}
	assertWindowBounded(t, "synced", dst)
	reopened, err := newMonitor(com, durable)
	if err != nil {
		t.Fatal(err)
	}
	if got := view(reopened); !reflect.DeepEqual(got, want) {
		t.Fatalf("synced monitor, reopened:\n got %+v\nwant %+v", got, want)
	}
	for i := 50; i < 70; i++ {
		o := object(i)
		ds, err1 := src.Add(o.Name, o.Values...)
		dd, err2 := dst.Add(o.Name, o.Values...)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(ds, dd) {
			t.Fatalf("%s: source delivered %v (%v), synced monitor %v (%v)", o.Name, ds, err1, dd, err2)
		}
	}
	if got := view(dst); !reflect.DeepEqual(got, view(src)) {
		t.Fatalf("after 20 more arrivals:\n got %+v\nwant %+v", got, view(src))
	}

	// A monitor holding some objects, but fewer than the source's base,
	// cannot join the stream.
	short, err := newMonitor(com, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Add("o0", "b0", "c0"); err != nil {
		t.Fatal(err)
	}
	if _, err := short.ImportObjects(bytes.NewReader(exported)); !errors.Is(err, ErrMigrateMismatch) {
		t.Fatalf("ImportObjects into a monitor short of the base: %v, want ErrMigrateMismatch", err)
	}

	// An interrupted import leaves a fast-forwarded monitor holding fewer
	// than W arrivals past its base. It exports from its base on, and a
	// reopen of a durable one (its snapshotted placeholder slots back in
	// the window) exports the same; a re-run resumes either to the source.
	interrupted := func(reopen bool) *Monitor {
		durable := cfg
		durable.Store = NewMemStore()
		m, err := newMonitor(com, durable)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := m.ImportObjects(bytes.NewReader(exported[:len(exported)/3])); err == nil || n == 0 || n >= w {
			t.Fatalf("truncated ImportObjects applied %d objects (%v), want an error after 0 < n < %d", n, err, w)
		}
		if reopen {
			if m, err = newMonitor(com, durable); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	for label, m := range map[string]*Monitor{"interrupted": interrupted(false), "interrupted, reopened": interrupted(true)} {
		var partial bytes.Buffer
		if err := m.ExportObjects(&partial); err != nil {
			t.Fatalf("%s: ExportObjects: %v", label, err)
		}
		fresh, err := newMonitor(com, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ImportObjects(&partial); err != nil {
			t.Fatalf("%s: importing its export: %v", label, err)
		}
		if got, want := view(fresh), view(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: synced from it:\n got %+v\nwant %+v", label, got, want)
		}
		if _, err := m.ImportObjects(bytes.NewReader(exported)); err != nil {
			t.Fatalf("%s: resumed ImportObjects: %v", label, err)
		}
		if got := view(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, resumed:\n got %+v\nwant %+v", label, got, want)
		}
	}
}

// TestWindowedMonitorHeapIgnoresStreamLength is the black-box witness of
// the bounds above: past the first windows, a windowed monitor's live
// heap does not grow with the number of arrivals. (Every arrival used to
// keep its registry slot, name and C_o slot: 162 B each here.)
func TestWindowedMonitorHeapIgnoresStreamLength(t *testing.T) {
	const w, early, late, perArrival = 64, 4096, 16384, 4
	for _, alg := range []Algorithm{AlgorithmBaseline, AlgorithmFilterThenVerify} {
		cfg := fuzzConfig(0)
		cfg.Algorithm, cfg.Window, cfg.Workers = alg, w, 2
		m, err := newMonitor(fuzzCommunity(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		feed := func(from, to int) {
			for i := from; i < to; i++ {
				if _, err := m.Add(fmt.Sprintf("o%d", i), fuzzValues[0][rng.Intn(5)], fuzzValues[1][rng.Intn(4)]); err != nil {
					t.Fatal(err)
				}
			}
		}
		heap := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		feed(0, early)
		before := heap()
		feed(early, late)
		after := heap()
		runtime.KeepAlive(m)
		if grown := int64(after) - int64(before); grown > perArrival*(late-early) {
			t.Errorf("%v at W=%d: live heap grew %d B over arrivals %d..%d (%.1f B each), want <= %d B each",
				alg, w, grown, early, late, float64(grown)/(late-early), perArrival)
		}
	}
}
