package paretomon

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/storage"
)

// ---- the object registry and its name index ----
//
// The registry keeps its slots in chunks that are never copied and its
// names in an open-addressed index of hash tags over id bits (registry.go).
// checkNames holds the index to a map model and to its own invariants
// after every step; the tables stay small (a handful of names), so probe
// chains and backward-shift deletions wrap around the table's end, as
// TestNameIndexWraps makes one do on purpose.

// nameModel is what the name index must hold: every alive name's id, as
// the Monitor assigns and frees them.
type nameModel struct {
	w     int            // window; 0 is append-only
	next  int            // the next id
	alive map[string]int // alive name -> id
	names map[int]string // a held id's name, until the window retires it
}

func newNameModel(w, base int) *nameModel {
	return &nameModel{w: w, next: base, alive: map[string]int{}, names: map[int]string{}}
}

// arrive gives name the next id and, under a window, retires the id that
// arrival pushes out: its name is freed only if it still maps there.
func (d *nameModel) arrive(name string) {
	id := d.next
	d.next++
	if old, ok := d.names[id-d.w]; ok && d.w > 0 {
		if cur, ok := d.alive[old]; ok && cur == id-d.w {
			delete(d.alive, old)
		}
		delete(d.names, id-d.w)
	}
	d.alive[name] = id
	d.names[id] = name
}

// admits reports whether a batch of names applies after the applied
// prefix done: no name alive, none of done's, none twice.
func (d *nameModel) admits(done, names []string) bool {
	for i, n := range names {
		if _, ok := d.alive[n]; ok || slices.Contains(done, n) || slices.Contains(names[:i], n) {
			return false
		}
	}
	return true
}

// checkNames holds m's name index to the model over the names of pool,
// and to its invariants: nothing staged between calls, every slot the
// tag and id of a held alive slot whose name maps there, reachable from
// its home, at most half the table full.
func checkNames(t *testing.T, label string, m *Monitor, d *nameModel, pool []string) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	x := &m.names
	if len(x.pend) != 0 {
		t.Fatalf("%s: %d names staged between calls", label, len(x.pend))
	}
	if m.objectCount() != d.next {
		t.Fatalf("%s: %d ids handed out, want %d", label, m.objectCount(), d.next)
	}
	held, mask := 0, len(x.slots)-1
	for s, v := range x.slots {
		if v == 0 {
			continue
		}
		held++
		id := x.id(v)
		if id < m.objBase || id >= m.objectCount() {
			t.Fatalf("%s: slot %d holds id %d outside the registry [%d, %d)", label, s, id, m.objBase, m.objectCount())
		}
		name := m.nameAt(id)
		if !m.aliveAt(id) || nameTag(name)|uint64(uint32(id)) != v {
			t.Fatalf("%s: slot %d holds id %d, whose slot is %q (alive %v)", label, s, id, name, m.aliveAt(id))
		}
		if want, ok := d.alive[name]; !ok || want != id {
			t.Fatalf("%s: %q maps to id %d, the model has %d (%v)", label, name, id, want, ok)
		}
		for h := int(v >> x.shift); h != s; h = (h + 1) & mask {
			if x.slots[h] == 0 {
				t.Fatalf("%s: slot %d is cut off from its home by the empty slot %d", label, s, h)
			}
		}
	}
	if held != x.n || held != len(d.alive) || 2*held > len(x.slots) {
		t.Fatalf("%s: %d slots held, n=%d, the model has %d names, table of %d", label, held, x.n, len(d.alive), len(x.slots))
	}
	for _, name := range pool {
		got, ok := x.find(name)
		if want, alive := d.alive[name]; ok != alive || got != want {
			t.Fatalf("%s: find(%q) = %d, %v; the model has %d, %v", label, name, got, ok, want, alive)
		}
	}
}

// nameMonitor is a windowed (w > 0) or append-only Monitor over
// batchCommunity on store, on one shard.
func nameMonitor(t *testing.T, w int, store Store) *Monitor {
	t.Helper()
	opts := []Option{WithWorkers(1)}
	if w > 0 {
		opts = append(opts, WithWindow(w))
	}
	if store != nil {
		opts = append(opts, WithStore(store))
	}
	m, err := NewMonitor(batchCommunity(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// nameObjs are objects named names, all of one tuple.
func nameObjs(names ...string) []Object {
	out := make([]Object, len(names))
	for i, n := range names {
		out[i] = Object{Name: n, Values: []string{"v0", "v1", "v2"}}
	}
	return out
}

func TestNameIndexCases(t *testing.T) {
	pool := []string{"a", "b", "c", "d", "p1", "p2", "q1"}
	add := func(t *testing.T, m *Monitor, d *nameModel, names ...string) {
		t.Helper()
		if _, err := m.AddBatch(nameObjs(names...)); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			d.arrive(n)
		}
		checkNames(t, fmt.Sprint("add ", names), m, d, pool)
	}
	remove := func(t *testing.T, m *Monitor, d *nameModel, name string) {
		t.Helper()
		if err := m.RemoveObject(name); err != nil {
			t.Fatal(err)
		}
		delete(d.alive, name)
		checkNames(t, "remove "+name, m, d, pool)
	}
	refused := func(t *testing.T, m *Monitor, d *nameModel, batch []Object, index int, want error) {
		t.Helper()
		_, err := m.AddBatch(batch)
		var be *BatchError
		if !errors.As(err, &be) || be.Index != index || !errors.Is(err, want) {
			t.Fatalf("AddBatch(%v): %v, want a BatchError at %d wrapping %v", batch, err, index, want)
		}
		checkNames(t, fmt.Sprint("refused ", batch), m, d, pool)
	}

	t.Run("claims and refusals", func(t *testing.T) {
		m, d := nameMonitor(t, 0, nil), newNameModel(0, 0)
		add(t, m, d, "a")
		refused(t, m, d, nameObjs("b", "c", "b"), 2, ErrDuplicateObject)
		refused(t, m, d, nameObjs("b", "a"), 1, ErrDuplicateObject)
		refused(t, m, d, append(nameObjs("b"), Object{Name: "c", Values: []string{"v0"}}), 1, ErrSchemaMismatch)
		if _, err := m.Add("a", "v0", "v1", "v2"); !errors.Is(err, ErrDuplicateObject) {
			t.Fatalf("Add of an alive name: %v", err)
		}
		add(t, m, d, "b", "c")
	})

	t.Run("reuse after RemoveObject", func(t *testing.T) {
		m, d := nameMonitor(t, 0, nil), newNameModel(0, 0)
		add(t, m, d, "a", "b")
		remove(t, m, d, "a")
		add(t, m, d, "a")
		if id, ok := m.objectID("a"); !ok || id != 2 {
			t.Fatalf("the re-added a is id %d (%v), want 2", id, ok)
		}
		if _, err := m.TargetsOf("a"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("reuse after window expiry", func(t *testing.T) {
		m, d := nameMonitor(t, 4, nil), newNameModel(4, 0)
		// a is removed and taken again before its old slot (id 0)
		// retires: the retirement at id 4's arrival keeps the new owner.
		add(t, m, d, "a")
		remove(t, m, d, "a")
		add(t, m, d, "a", "b", "c")
		add(t, m, d, "d")
		if id, ok := m.objectID("a"); !ok || id != 1 {
			t.Fatalf("after id 0 retired, a is id %d (%v), want 1", id, ok)
		}
		// Expiry frees a name for good: b (id 2) leaves at id 6's arrival.
		add(t, m, d, "p1", "p2")
		if m.HasObject("b") {
			t.Fatal("b outlived its window")
		}
		add(t, m, d, "b")
	})

	t.Run("prefix hold of a retry", func(t *testing.T) {
		m, d := nameMonitor(t, 0, nil), newNameModel(0, 0)
		id := BatchID{Writer: "w", Seq: 1}
		if _, err := m.AddBatchOnce(id, nameObjs("p1", "p2")); err != nil {
			t.Fatal(err)
		}
		d.arrive("p1")
		d.arrive("p2")
		remove(t, m, d, "p1")
		// p1 is free, but the retry's rest may not take it.
		_, err := m.AddBatchOnce(id, nameObjs("p1", "p2", "q1", "p1"))
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 3 || !errors.Is(err, ErrDuplicateObject) {
			t.Fatalf("a retry repeating its freed prefix name: %v", err)
		}
		checkNames(t, "refused retry", m, d, pool)
		if _, err := m.AddBatchOnce(id, nameObjs("p1", "p2", "q1")); err != nil {
			t.Fatal(err)
		}
		d.arrive("q1")
		checkNames(t, "retry", m, d, pool)
		add(t, m, d, "p1")
	})

	t.Run("snapshot with two alive objects of one name", func(t *testing.T) {
		store := NewMemStore()
		m := nameMonitor(t, 0, store)
		if _, err := m.AddBatch(nameObjs("a", "b")); err != nil {
			t.Fatal(err)
		}
		if err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		seq, body, ok, err := store.LoadSnapshot()
		if err != nil || !ok {
			t.Fatalf("LoadSnapshot: %v, %v", ok, err)
		}
		snap, err := storage.UnmarshalSnapshot(body)
		if err != nil {
			t.Fatal(err)
		}
		snap.Objects[1].Name = snap.Objects[0].Name
		if err := store.WriteSnapshot(seq, snap.Marshal()); err != nil {
			t.Fatal(err)
		}
		if _, err := NewMonitor(batchCommunity(t), WithWorkers(1), WithStore(store)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("reopen over a snapshot naming a twice: %v, want ErrCorrupt", err)
		}
	})

	t.Run("ids past 1<<33", func(t *testing.T) {
		const base = 1<<33 - 3 // the ids' low 32 bits wrap to 0 at the fourth arrival
		m, d := nameMonitor(t, 4, nil), newNameModel(4, base)
		if err := m.fastForward(base); err != nil {
			t.Fatal(err)
		}
		checkNames(t, "fast-forward", m, d, pool)
		add(t, m, d, "a", "b", "c")
		add(t, m, d, "d")
		remove(t, m, d, "b")
		add(t, m, d, "b", "p1")
		if id, ok := m.objectID("b"); !ok || id != base+4 {
			t.Fatalf("b is id %d (%v), want %d", id, ok, base+4)
		}
		add(t, m, d, "p2", "q1") // a, c and d expire
		for _, gone := range []string{"a", "c", "d"} {
			if m.HasObject(gone) {
				t.Fatalf("%s outlived its window past 1<<33", gone)
			}
		}
		add(t, m, d, "a", "c")
	})
}

// TestNameIndexWraps: backward-shift deletion pulls a chain that wraps
// the table's end back across it. Three names homed at the last slot of
// an eight-slot table fill it and the first two, pushing a fourth homed
// at slot 1 to slot 2; dropping the first moves the other three back one
// slot each, the fourth to its home.
func TestNameIndexWraps(t *testing.T) {
	r := newRegistry(0, 1)
	var last []string
	var other string
	for i := 0; len(last) < 3 || other == ""; i++ {
		name := fmt.Sprint("k", i)
		switch nameTag(name) >> 61 {
		case 7:
			if len(last) < 3 {
				last = append(last, name)
			}
		case 1:
			if other == "" {
				other = name
			}
		}
	}
	for i, name := range append(slices.Clone(last), other) {
		r.push(name, true)
		if !r.names.claim(name, i) {
			t.Fatalf("claim(%q) refused", name)
		}
	}
	x := &r.names
	if len(x.slots) != 8 || x.slots[7]&0xffffffff != 0 || x.slots[0]&0xffffffff != 1 || x.slots[1]&0xffffffff != 2 || x.slots[2]&0xffffffff != 3 {
		t.Fatalf("slots %x: want ids 0, 1, 2 in slots 7, 0, 1 and id 3 in slot 2", x.slots)
	}
	x.drop(last[0], 0)
	r.kill(0)
	if x.slots[7]&0xffffffff != 1 || x.slots[0]&0xffffffff != 2 || x.slots[1]&0xffffffff != 3 || x.slots[2] != 0 {
		t.Fatalf("after the drop, slots %x: want ids 1, 2, 3 in slots 7, 0, 1 and slot 2 empty", x.slots)
	}
	for i, name := range append(slices.Clone(last), other) {
		if id, ok := x.find(name); ok != (i > 0) || ok && id != i {
			t.Fatalf("find(%q) = %d, %v", name, id, ok)
		}
	}
}

// FuzzNameIndex drives a Monitor, append-only or windowed, from id 0 or
// from just below 1<<32 (so the ids' low 32 bits wrap), with Add,
// AddBatch, RemoveObject, AddBatchOnce and its retries over seven names,
// and from id 0 also snapshots and reopening over the snapshot and the
// WAL, and holds the name index to the model after every step. (A
// fast-forwarded monitor is storeless here: its snapshot would write a
// placeholder for every id below the base.)
func FuzzNameIndex(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 2, 0, 0, 0, 1, 1, 2, 3})
	f.Add(uint8(2), []byte{1, 3, 0, 1, 2, 4, 2, 1, 3, 2, 5, 6, 4, 1, 0, 5, 0, 6, 0, 0, 0, 1, 0, 2, 0, 3})
	f.Add(uint8(7), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 1, 0, 1, 0, 5, 0, 6, 6, 0, 0, 0, 3, 2, 1, 2, 4, 2, 5, 6})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		pool := []string{"a", "b", "c", "d", "e", "f", "g"}
		w := []int{0, 1, 3, 5}[shape%4]
		base := 0
		if w > 0 && shape&4 != 0 {
			base = 1<<32 - 2
		}
		var store Store
		if base == 0 {
			store = NewMemStore()
		}
		m := nameMonitor(t, w, store)
		if base > 0 {
			if err := m.fastForward(base); err != nil {
				t.Fatal(err)
			}
		}
		d := newNameModel(w, base)
		var memo []string // the writer's last applied batch
		seq := uint64(0)
		take := func(n int) []string {
			var out []string
			for ; n > 0 && len(ops) > 0; n-- {
				out = append(out, pool[int(ops[0])%len(pool)])
				ops = ops[1:]
			}
			return out
		}
		for step := 0; step < 200 && len(ops) >= 2; step++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			name := pool[int(arg)%len(pool)]
			label := fmt.Sprintf("step %d (op %d)", step, op%7)
			switch op % 7 {
			case 0:
				_, err := m.Add(name, "v0", "v1", "v2")
				if want := d.admits(nil, []string{name}); (err == nil) != want {
					t.Fatalf("%s: Add(%s): %v, want success %v", label, name, err, want)
				}
				if err == nil {
					d.arrive(name)
				}
			case 1, 3, 4:
				names := take(1 + int(arg)%3)
				var err error
				var done []string
				switch op % 7 {
				case 1:
					_, err = m.AddBatch(nameObjs(names...))
				case 3:
					_, err = m.AddBatchOnce(BatchID{Writer: "w", Seq: seq + 1}, nameObjs(names...))
				case 4:
					if seq == 0 {
						continue
					}
					done = memo
					_, err = m.AddBatchOnce(BatchID{Writer: "w", Seq: seq}, nameObjs(append(slices.Clone(memo), names...)...))
				}
				if want := d.admits(done, names); (err == nil) != want {
					t.Fatalf("%s: batch %v after %v: %v, want success %v", label, names, done, err, want)
				}
				if err != nil {
					break
				}
				for _, n := range names {
					d.arrive(n)
				}
				switch op % 7 {
				case 3:
					seq, memo = seq+1, names
				case 4:
					memo = append(slices.Clone(memo), names...)
				}
			case 2:
				err := m.RemoveObject(name)
				if _, alive := d.alive[name]; (err == nil) != alive {
					t.Fatalf("%s: RemoveObject(%s): %v, alive %v", label, name, err, alive)
				}
				delete(d.alive, name)
			case 5:
				if store != nil {
					if err := m.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			case 6:
				if store != nil {
					m = nameMonitor(t, w, store) // the last snapshot, then the WAL
				}
			}
			checkNames(t, label, m, d, pool)
		}
	})
}

// ---- ingest does not pay for the stream's length ----

// TestRegistrySlotsNeverMove: an append-only registry's slot, and with it
// the attribute values the engines hold, stays where it is however many
// objects arrive after it.
func TestRegistrySlotsNeverMove(t *testing.T) {
	m := nameMonitor(t, 0, nil)
	if _, err := m.AddBatch(batchStream(0, 1)); err != nil {
		t.Fatal(err)
	}
	first := &m.attrsAt(0)[0]
	for i := 1; i <= 10_000; i += 250 {
		if _, err := m.AddBatch(batchStream(i, 250)); err != nil {
			t.Fatal(err)
		}
	}
	if m.objectCount() != 10_001 || &m.attrsAt(0)[0] != first || m.nameAt(0) != "o0" {
		t.Fatalf("after 10 000 more arrivals slot 0's values are at %p (%q), were at %p", &m.attrsAt(0)[0], m.nameAt(0), first)
	}
}

// TestAddBatchBytesIgnoreRegistryLength: an AddBatch of 256 allocates no
// more per object into a registry of 65 536 objects than into one of
// 1 024. The window measured is 48 batches after a first one: a registry
// that re-copies its slots as it grows pays there for a copy of all
// 65 536 (one []objEntry did: 549 against 423 B per object), and the name
// index, half full at both lengths, grows in the first batch at both.
func TestAddBatchBytesIgnoreRegistryLength(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a registry of 65 536 objects")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const batch, runs = 256, 48
	perObject := func(length int) float64 {
		m := nameMonitor(t, 0, nil)
		for i := 0; i < length; i += batch {
			if _, err := m.AddBatch(batchStream(i, batch)); err != nil {
				t.Fatal(err)
			}
		}
		batches := make([][]Object, runs+1)
		for i := range batches {
			batches[i] = batchStream(length+i*batch, batch)
		}
		if _, err := m.AddBatch(batches[0]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range batches[1:] {
			if _, err := m.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (runs * batch)
	}
	// The least of three fills: TotalAlloc also counts what goroutines
	// other tests left behind allocate meanwhile.
	least := func(length int) float64 {
		return min(perObject(length), perObject(length), perObject(length))
	}
	short, long := least(1024), least(65_536)
	t.Logf("%.0f B per object at 1 024, %.0f at 65 536", short, long)
	if long > short {
		t.Errorf("AddBatch allocates %.0f B per object at registry length 65 536, %.0f at 1 024", long, short)
	}
}

// TestAppendOnlyHeapPerObject pins what an append-only monitor keeps per
// object: the live heap a one-worker FilterThenVerify monitor gains over
// 2¹⁶ objects of 4 attributes, fed in batches of 256, the objects
// themselves (names, value strings) excluded: chiefly the registry slot
// (a name header, 4 values and an aliveness bit: 32 B), the name index's
// share of its table (16 B) and the tuple table's link (8 B). It reads
// 65 B; a slot of 48 B beside its values in a slab of their own read 99 B.
func TestAppendOnlyHeapPerObject(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a registry of 65 536 objects")
	}
	const n, batch, bound = 1 << 16, 256, 72
	attrs := []string{"a", "b", "c", "d"}
	vals := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	com := NewCommunity(NewSchema(attrs...))
	for i := 0; i < 8; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for d, attr := range attrs {
			chain := make([]string, len(vals))
			for j := range vals {
				chain[j] = vals[(j+i+3*d)%len(vals)]
			}
			if err := u.PreferChain(attr, chain...); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := NewMonitor(com, WithAlgorithm(AlgorithmFilterThenVerify), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	objs := make([]Object, n)
	seed := uint64(5)
	for i := range objs {
		row := make([]string, len(attrs))
		for d := range row {
			seed = seed*6364136223846793005 + 1442695040888963407
			row[d] = vals[seed>>33%uint64(len(vals))]
		}
		objs[i] = Object{Name: fmt.Sprintf("o%d", i), Values: row}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < n; i += batch {
		if _, err := m.AddBatch(objs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	runtime.KeepAlive(objs)
	per := float64(int64(after)-int64(before)) / n
	t.Logf("%.1f B of live heap per object", per)
	if per > bound {
		t.Errorf("an append-only monitor keeps %.1f B per object, want at most %d", per, bound)
	}
}

// TestWindowedChunkReuse: a window of exactly one chunk (8 and 256 slots)
// fed batches of 3W drops chunks inside every AddBatch, while the shards
// still have to expire the ids in them. The dropped chunk may take new
// values only once the call returns: every delivery and frontier must
// equal a storeless one-shard reference fed the same objects one Add at a
// time, after every batch.
func TestWindowedChunkReuse(t *testing.T) {
	for _, w := range []int{8, 256} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("w=%d/workers=%d", w, workers), func(t *testing.T) {
				mon := func(workers int) *Monitor {
					m, err := NewMonitor(batchCommunity(t), WithWindow(w), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { m.Close() })
					return m
				}
				m, ref := mon(workers), mon(1)
				if m.shift != uint(bits.Len(uint(w))-1) {
					t.Fatalf("a window of %d has chunks of %d slots", w, 1<<m.shift)
				}
				for b := 0; b < 6; b++ {
					objs := batchStream(b*3*w, 3*w)
					got, err := m.AddBatch(objs)
					if err != nil {
						t.Fatal(err)
					}
					for i, o := range objs {
						want, err := ref.Add(o.Name, o.Values...)
						if err != nil {
							t.Fatal(err)
						}
						if got[i].Object != want.Object || !slices.Equal(got[i].Users, want.Users) {
							t.Fatalf("batch %d, object %d: delivered %v, the reference %v", b, i, got[i], want)
						}
					}
					for _, u := range ref.Users() {
						fg, _ := m.Frontier(u)
						fw, _ := ref.Frontier(u)
						if !slices.Equal(fg, fw) {
							t.Fatalf("batch %d: %s's frontier is %v, the reference's %v", b, u, fg, fw)
						}
					}
				}
			})
		}
	}
}
