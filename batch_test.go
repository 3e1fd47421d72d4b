package paretomon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// Exactly-once batches: a batch re-sent under its id is answered with the
// deliveries of its arrival and applies only what it had not applied —
// live, after a crash that tore the batch, after a snapshot covered it,
// and on a follower fed the log.

// batchCommunity is six users over three attributes whose chains rotate
// per user, so frontiers differ.
func batchCommunity(t testing.TB) *Community {
	t.Helper()
	attrs := []string{"a", "b", "c"}
	vals := []string{"v0", "v1", "v2", "v3", "v4"}
	com := NewCommunity(NewSchema(attrs...))
	for i := 0; i < 6; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for d, attr := range attrs {
			chain := make([]string, len(vals))
			for j := range vals {
				chain[j] = vals[(j+i+2*d)%len(vals)]
			}
			if err := u.PreferChain(attr, chain...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return com
}

// batchStream is n deterministic objects named from first on.
func batchStream(first, n int) []Object {
	out := make([]Object, n)
	seed := uint64(first)*2654435761 + 17
	for i := range out {
		row := make([]string, 3)
		for d := range row {
			seed = seed*6364136223846793005 + 1442695040888963407
			row[d] = fmt.Sprintf("v%d", seed>>33%5)
		}
		out[i] = Object{Name: fmt.Sprintf("o%d", first+i), Values: row}
	}
	return out
}

// sameMonitor holds got to want: stream position, every frontier and the
// C_o of every object want still holds.
func sameMonitor(t *testing.T, label string, want, got *Monitor, objs []Object) {
	t.Helper()
	if w, g := want.Stats().Processed, got.Stats().Processed; w != g {
		t.Fatalf("%s: Processed %d, want %d", label, g, w)
	}
	for _, u := range want.Users() {
		fw, _ := want.Frontier(u)
		fg, err := got.Frontier(u)
		if err != nil || !reflect.DeepEqual(fw, fg) {
			t.Fatalf("%s: frontier of %s is %v (%v), want %v", label, u, fg, err, fw)
		}
	}
	for _, o := range objs {
		tw, errW := want.TargetsOf(o.Name)
		tg, errG := got.TargetsOf(o.Name)
		if (errW == nil) != (errG == nil) || !reflect.DeepEqual(tw, tg) {
			t.Fatalf("%s: C_%s is %v (%v), want %v (%v)", label, o.Name, tg, errG, tw, errW)
		}
	}
}

func TestParseBatchID(t *testing.T) {
	for _, s := range []string{"w/1", "feed-1/18446744073709551615", "a.b_c-D9/7", "a/b/3"} {
		id, err := ParseBatchID(s)
		if s == "a/b/3" {
			if !errors.Is(err, ErrBadBatchID) {
				t.Errorf("ParseBatchID(%q) = %v, %v; want ErrBadBatchID (a writer has no /)", s, id, err)
			}
			continue
		}
		if err != nil || id.String() != s {
			t.Errorf("ParseBatchID(%q) = %v, %v", s, id, err)
		}
	}
	long := string(slices.Repeat([]byte{'w'}, 65))
	for _, s := range []string{"", "w", "/1", "w/", "w/0", "w/-1", "w/+1", "w/x", "w x/1", "wé/1", long + "/1", "w/18446744073709551616"} {
		if _, err := ParseBatchID(s); !errors.Is(err, ErrBadBatchID) {
			t.Errorf("ParseBatchID(%q): %v, want ErrBadBatchID", s, err)
		}
	}
	if _, err := ParseBatchID(long[:64] + "/1"); err != nil {
		t.Errorf("a 64-byte writer: %v", err)
	}
}

// TestAddBatchOnce covers the memo's answers on a storeless monitor: a
// lost reply needs no crash to be re-asked for.
func TestAddBatchOnce(t *testing.T) {
	for _, window := range []int{0, 3} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			com := batchCommunity(t)
			ref, err := NewMonitor(com, WithWindow(window))
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMonitor(com, WithWindow(window))
			if err != nil {
				t.Fatal(err)
			}
			objs := batchStream(1, 12)
			id := BatchID{Writer: "feed", Seq: 4}
			want, err := ref.AddBatch(objs[:6])
			if err != nil {
				t.Fatal(err)
			}
			// A prefix applied, then the whole batch re-sent: the prefix is
			// answered from the memo, the rest applied.
			if _, err := m.AddBatchOnce(id, objs[:2]); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				got, err := m.AddBatchOnce(id, objs[:6])
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("re-sent batch: %v, %v; want %v", got, err, want)
				}
			}
			sameMonitor(t, "after the re-sends", ref, m, objs)

			for _, bad := range []struct {
				id   BatchID
				objs []Object
				err  error
			}{
				{BatchID{Writer: "feed", Seq: 3}, objs[6:8], ErrBatchConflict},   // stale
				{id, objs[1:7], ErrBatchConflict},                                // other names
				{id, objs[:5], ErrBatchConflict},                                 // fewer than applied
				{BatchID{Writer: "feed", Seq: 0}, objs[6:8], ErrBadBatchID},      // no seq
				{BatchID{Writer: "fe/ed", Seq: 5}, objs[6:8], ErrBadBatchID},     // bad writer
				{BatchID{Writer: "", Seq: 5}, objs[6:8], ErrBadBatchID},          // no writer
				{BatchID{Writer: "feed", Seq: 5}, objs[5:8], ErrDuplicateObject}, // a new batch naming a held object
				{BatchID{}, objs[5:8], ErrDuplicateObject},                       // AddBatch
			} {
				if _, err := m.AddBatchOnce(bad.id, bad.objs); !errors.Is(err, bad.err) {
					t.Errorf("AddBatchOnce(%v, %d objects): %v, want %v", bad.id, len(bad.objs), err, bad.err)
				}
			}
			sameMonitor(t, "after the refusals", ref, m, objs)

			// A newer seq is a new batch; re-sent, it answers as it did.
			want, _ = ref.AddBatch(objs[6:])
			for range 2 {
				got, err := m.AddBatchOnce(BatchID{Writer: "feed", Seq: 9}, objs[6:])
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("newer batch: %v, %v; want %v", got, err, want)
				}
			}
			sameMonitor(t, "after the newer batch", ref, m, objs)
			if got, err := m.AddBatchOnce(id, objs[:6]); !errors.Is(err, ErrBatchConflict) {
				t.Fatalf("the writer's previous batch after a newer one: %v, %v", got, err)
			}
		})
	}
}

// TestAddBatchOnceEvictsOldestWriter: past maxWriters writers the one
// whose batch is oldest is forgotten — its re-send is a new batch, and
// refused for the names it holds — and a reopened monitor forgets the
// same one.
func TestAddBatchOnceEvictsOldestWriter(t *testing.T) {
	com := batchCommunity(t)
	store := NewMemStore()
	m, err := NewMonitor(com, WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	objs := batchStream(1, maxWriters+2)
	for i, o := range objs {
		// Writer 1 goes again just before the 65th writer arrives, so it
		// is not the oldest then: writer 0 is.
		w := i
		if i == maxWriters-1 {
			w = 1
		}
		if _, err := m.AddBatchOnce(BatchID{Writer: fmt.Sprintf("w%d", w), Seq: uint64(i + 1)}, []Object{o}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, m *Monitor) {
		if _, err := m.AddBatchOnce(BatchID{Writer: "w0", Seq: 1}, objs[:1]); !errors.Is(err, ErrDuplicateObject) {
			t.Errorf("%s: the evicted writer's re-send: %v, want ErrDuplicateObject", label, err)
		}
		if ds, err := m.AddBatchOnce(BatchID{Writer: "w2", Seq: 3}, objs[2:3]); err != nil || ds[0].Object != objs[2].Name {
			t.Errorf("%s: a remembered writer's re-send: %v, %v", label, ds, err)
		}
		if _, err := m.AddBatchOnce(BatchID{Writer: "w1", Seq: 2}, objs[1:2]); !errors.Is(err, ErrBatchConflict) {
			t.Errorf("%s: writer 1's older batch: %v, want ErrBatchConflict", label, err)
		}
		if got := len(m.batches); got != maxWriters {
			t.Errorf("%s: %d writers remembered, want %d", label, got, maxWriters)
		}
	}
	check("live", m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := NewMonitor(com, WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	check("reopened", again)
}

// tearWAL truncates dir's newest WAL segment right after the record with
// sequence number keep.
func tearWAL(t *testing.T, dir string, keep uint64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	const header, frame = 8, 8 // segment magic and version; record length and CRC
	pos := header
	for pos < len(data) {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		rec, err := storage.DecodeRecord(data[pos+frame : pos+frame+n])
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq > keep {
			break
		}
		pos += frame + n
	}
	if err := os.WriteFile(last, data[:pos], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAddBatchOnceAfterCrash: a file-store monitor logs a tagged batch of
// n objects and dies with k of its records on disk; reopened, the batch
// re-sent under its id gets exactly the reply of a monitor that never
// stopped, for every cut — none of the batch, its first record, all but
// one, all — and under a window smaller than the batch. With other set,
// the reopened monitor applies a plain batch and restarts once more
// before the retry: the log then holds the torn batch's records followed
// by records of no batch, which recovery must not read as the batch's.
func TestAddBatchOnceAfterCrash(t *testing.T) {
	const n = 6
	for _, window := range []int{0, 4} {
		for _, k := range []int{0, 1, n - 1, n} {
			for _, other := range []bool{false, true} {
				t.Run(fmt.Sprintf("window=%d/k=%d/other=%v", window, k, other), func(t *testing.T) {
					testAddBatchOnceAfterCrash(t, window, k, n, other)
				})
			}
		}
	}
}

func testAddBatchOnceAfterCrash(t *testing.T, window, k, n int, other bool) {
	com := batchCommunity(t)
	opts := []Option{WithWindow(window), WithWorkers(2)}
	ref, err := NewMonitor(com, opts...)
	if err != nil {
		t.Fatal(err)
	}
	objs := batchStream(1, 5+n+2)
	before, batch, plain := objs[:5], objs[5:5+n], objs[5+n:]
	if _, err := ref.AddBatch(before); err != nil {
		t.Fatal(err)
	}
	// The reference meets the plain batch where the monitor does: right
	// after the k records that survived the crash.
	cut := k
	if !other {
		cut = n
	}
	want, err := ref.AddBatch(batch[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if other {
		if _, err := ref.AddBatch(plain); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := ref.AddBatch(batch[cut:])
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, rest...)

	dir := t.TempDir()
	m, err := Open(com, dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBatchOnce(BatchID{Writer: "w", Seq: 1}, before); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBatchOnce(BatchID{Writer: "w", Seq: 2}, batch); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	tearWAL(t, dir, uint64(len(before)+k))

	m, err = Open(com, dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ObjectCount(); got != len(before)+k {
		t.Fatalf("recovered %d objects, want %d", got, len(before)+k)
	}
	if other {
		if _, err := m.AddBatch(plain); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if m, err = Open(com, dir, opts...); err != nil {
			t.Fatal(err)
		}
	}
	defer m.Close()
	for range 2 {
		got, err := m.AddBatchOnce(BatchID{Writer: "w", Seq: 2}, batch)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("retry after the crash: %v, %v\nwant %v", got, err, want)
		}
	}
	sameMonitor(t, "after the retry", ref, m, objs)
}

// TestAddBatchOnceSnapshotCarriesMemo: the batch's reply is lost and an
// automatic snapshot covers it, so recovery replays none of its records;
// the memo comes back from the snapshot.
func TestAddBatchOnceSnapshotCarriesMemo(t *testing.T) {
	for _, window := range []int{0, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			com := batchCommunity(t)
			ref, err := NewMonitor(com, WithWindow(window))
			if err != nil {
				t.Fatal(err)
			}
			batch := batchStream(1, 6)
			want, err := ref.AddBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			m, err := Open(com, dir, WithWindow(window), WithSnapshotEvery(len(batch)))
			if err != nil {
				t.Fatal(err)
			}
			id := BatchID{Writer: "w", Seq: 1}
			if _, err := m.AddBatchOnce(id, batch); err != nil {
				t.Fatal(err)
			}
			if st, err := m.StorageStats(); err != nil || st.LastSnapshotSeq != uint64(len(batch)) {
				t.Fatalf("no snapshot covers the batch: %+v, %v", st, err)
			}
			m.Close()

			m, err = Open(com, dir, WithWindow(window))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			got, err := m.AddBatchOnce(id, batch)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("retry after reopening: %v, %v\nwant %v", got, err, want)
			}
			sameMonitor(t, "after the retry", ref, m, batch)
		})
	}
}

// TestBatchMemosReachFollowers: a follower fed the log, a monitor
// reopened over it and one restored from a snapshot remember what the
// live monitor does, a batch extended by its re-send included.
func TestBatchMemosReachFollowers(t *testing.T) {
	com := batchCommunity(t)
	store := NewMemStore()
	m, err := NewMonitor(com, WithStore(store), WithWindow(5))
	if err != nil {
		t.Fatal(err)
	}
	objs := batchStream(1, 14)
	steps := []struct {
		id   BatchID
		objs []Object
	}{
		{BatchID{"a", 1}, objs[0:3]},
		{BatchID{"b", 1}, objs[3:4]},
		{BatchID{"a", 2}, objs[4:5]},
		{BatchID{"a", 2}, objs[4:8]},
		{BatchID{}, objs[8:10]},
		{BatchID{"c", 7}, objs[10:14]},
	}
	for _, st := range steps {
		if _, err := m.AddBatchOnce(st.id, st.objs); err != nil {
			t.Fatal(err)
		}
	}
	want := m.batchMemos()
	if len(want) != 3 || len(want[1].Objects) != 4 {
		t.Fatalf("live memos %+v", want)
	}

	cfg := m.cfg
	cfg.Store = nil
	follower, err := newFollowerMonitor(com, cfg, 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Replay(0, follower.applyFeedRecord); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	restored, err := NewMonitor(com, WithStore(store), WithWindow(5))
	if err != nil {
		t.Fatal(err)
	}
	for label, got := range map[string]*Monitor{"follower": follower, "restored": restored} {
		if memos := got.batchMemos(); !reflect.DeepEqual(memos, want) {
			t.Errorf("%s remembers %+v, want %+v", label, memos, want)
		}
	}
}

// TestAddBatchOnceConcurrent: writers re-sending their own batches and
// all of them re-sending one shared batch, at once, apply every object
// once, and every answer for a batch is the same.
func TestAddBatchOnceConcurrent(t *testing.T) {
	com := batchCommunity(t)
	m, err := NewMonitor(com, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 6, 4
	shared := batchStream(1000, 5)
	objs := batchStream(1, writers*rounds*3)
	replies := make([][][]Delivery, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				id := BatchID{Writer: fmt.Sprintf("w%d", w), Seq: uint64(r + 1)}
				batch := objs[(w*rounds+r)*3:][:3]
				for range 2 {
					ds, err := m.AddBatchOnce(id, batch)
					if err != nil {
						t.Errorf("%v: %v", id, err)
						return
					}
					replies[w] = append(replies[w], ds)
				}
				ds, err := m.AddBatchOnce(BatchID{Writer: "shared", Seq: 1}, shared)
				if err != nil {
					t.Errorf("shared batch: %v", err)
					return
				}
				replies[w] = append(replies[w], ds)
			}
		}()
	}
	wg.Wait()
	if got, want := m.ObjectCount(), len(objs)+len(shared); got != want {
		t.Fatalf("ObjectCount = %d, want %d", got, want)
	}
	first := replies[0][2]
	for w, rs := range replies {
		for i := 0; i+2 < len(rs); i += 3 {
			if !reflect.DeepEqual(rs[i], rs[i+1]) || !reflect.DeepEqual(rs[i+2], first) {
				t.Fatalf("writer %d round %d: answers differ", w, i/3)
			}
		}
	}
}
