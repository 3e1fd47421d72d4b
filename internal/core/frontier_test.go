package core

import (
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// checkIndex asserts the hash index's structural invariants: a
// power-of-two table at most half full, every member indexed exactly
// once, and every occupied slot reachable from its member's home without
// crossing an empty slot (what backward-shift deletion must preserve).
func checkIndex(t *testing.T, f *Frontier) {
	t.Helper()
	n := len(f.slots)
	if n&(n-1) != 0 {
		t.Fatalf("len(slots) = %d, not a power of two", n)
	}
	if 2*len(f.list) > n {
		t.Fatalf("%d members in %d slots: over half full", len(f.list), n)
	}
	if n > 0 && f.shift != uint(64-bits.TrailingZeros(uint(n))) {
		t.Fatalf("shift = %d for %d slots", f.shift, n)
	}
	used := 0
	for s, v := range f.slots {
		if v == 0 {
			continue
		}
		used++
		if int(v) > len(f.list) {
			t.Fatalf("slot %d points at list[%d], len %d", s, v-1, len(f.list))
		}
		for p := f.home(f.list[v-1].ID); p != s; p = (p + 1) & (n - 1) {
			if f.slots[p] == 0 {
				t.Fatalf("slot %d (id %d) unreachable: empty slot %d on its probe path", s, f.list[v-1].ID, p)
			}
		}
	}
	if used != len(f.list) {
		t.Fatalf("%d occupied slots for %d members", used, len(f.list))
	}
	for i, o := range f.list {
		if s := f.find(o.ID); s < 0 || int(f.slots[s])-1 != i {
			t.Fatalf("list[%d] (id %d) not found at its own index (slot %d)", i, o.ID, s)
		}
	}
}

// frontierModel is the reference: a map for membership and a slice that
// replays Frontier's documented scan order (append, swap-delete).
type frontierModel struct {
	byID  map[int]object.Object
	order []object.Object
}

func (m *frontierModel) add(o object.Object) {
	if _, ok := m.byID[o.ID]; ok {
		return
	}
	m.byID[o.ID] = o
	m.order = append(m.order, o)
}

func (m *frontierModel) remove(id int) bool {
	if _, ok := m.byID[id]; !ok {
		return false
	}
	delete(m.byID, id)
	for i, o := range m.order {
		if o.ID == id {
			last := len(m.order) - 1
			m.order[i] = m.order[last]
			m.order = m.order[:last]
			break
		}
	}
	return true
}

func (m *frontierModel) clone() *frontierModel {
	c := &frontierModel{byID: make(map[int]object.Object, len(m.byID)), order: append([]object.Object(nil), m.order...)}
	for id, o := range m.byID {
		c.byID[id] = o
	}
	return c
}

// agree checks f against the model: Len, the At(i) order (ids and the
// attribute value stamped at insertion), and membership of probe.
func (m *frontierModel) agree(t *testing.T, f *Frontier, probe int) {
	t.Helper()
	if f.Len() != len(m.order) {
		t.Fatalf("Len = %d, model %d", f.Len(), len(m.order))
	}
	for i, want := range m.order {
		if got := f.At(i); got.ID != want.ID || got.Attrs[0] != want.Attrs[0] {
			t.Fatalf("At(%d) = %v, model %v", i, got, want)
		}
	}
	want, in := m.byID[probe]
	if f.Contains(probe) != in {
		t.Fatalf("Contains(%d) = %v, model %v", probe, !in, in)
	}
	if got, ok := f.ByID(probe); ok != in || (ok && (got.ID != probe || got.Attrs[0] != want.Attrs[0])) {
		t.Fatalf("ByID(%d) = %v, %v; model %v, %v", probe, got, ok, want, in)
	}
}

const (
	regimeDense   = iota // ids in [0, 48): constant collisions with members
	regimeSliding        // an ascending counter with a trailing window of 16
	regimeSparse         // ids spread up to 1<<40, plus -1
	regimes
)

// slidingWindow is the trailing range the sliding regime keeps members
// in: every add also removes the id this far back, as a window ring
// would.
const slidingWindow = 16

// runFrontierOps interprets data as an operation sequence — data[0]
// picks the id regime, then two bytes per operation — and checks the
// frontier against the model and its own invariants after every step.
func runFrontierOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	regime := int(data[0]) % regimes
	f, m := NewFrontier(), &frontierModel{byID: map[int]object.Object{}}
	// The frontier a Clone was taken from, and the model at that moment:
	// later writes to the clone must not show through.
	var cloned *Frontier
	var clonedModel *frontierModel
	next := 0
	for step := 0; 2+2*step < len(data); step++ {
		op, b := data[1+2*step]%8, int(data[2+2*step])
		var id int
		switch regime {
		case regimeDense:
			id = b % 48
		case regimeSliding:
			id = next - 1 - b%(2*slidingWindow) // recent, expired, or (early on) negative
		case regimeSparse:
			id = b<<32 | b
			if b == 0 {
				id = -1
			}
		}
		switch op {
		case 0, 1, 2, 3: // add
			if regime == regimeSliding {
				id = next
				next++
			}
			o := object.Object{ID: id, Attrs: []int32{int32(step)}}
			f.Add(o)
			m.add(o)
			if regime == regimeSliding {
				if got, want := f.Remove(id-slidingWindow), m.remove(id-slidingWindow); got != want {
					t.Fatalf("step %d: Remove(%d) = %v, model %v", step, id-slidingWindow, got, want)
				}
			}
		case 4, 5: // remove
			if got, want := f.Remove(id), m.remove(id); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, model %v", step, id, got, want)
			}
		case 6: // clone, and carry on with the copy
			cloned, clonedModel = f, m.clone()
			f = f.Clone()
		}
		m.agree(t, f, id)
		checkIndex(t, f)
		if cloned != nil {
			clonedModel.agree(t, cloned, id)
			checkIndex(t, cloned)
		}
		// Churn never grows the table: at most slidingWindow+1 members,
		// however many ids have gone through.
		if regime == regimeSliding && len(f.slots) > 4*slidingWindow {
			t.Fatalf("step %d: %d slots for a window of %d", step, len(f.slots), slidingWindow)
		}
	}
}

// randomOps is a reproducible operation sequence of n bytes for one
// regime.
func randomOps(regime byte, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(int64(regime) + 1)).Read(data)
	data[0] = regime
	return data
}

// Two bytes an operation and half of them adds: 16 KiB sends some 4 000
// ids through the sliding regime's 64-slot table, over sixty table-fulls,
// and fills and drains the dense and sparse tables many times over.
func TestFrontierAgainstModel(t *testing.T) {
	for regime := byte(0); regime < regimes; regime++ {
		runFrontierOps(t, randomOps(regime, 16384))
	}
}

// FuzzFrontier explores the same body from short seeds (the fuzzer's
// throughput falls with input length).
func FuzzFrontier(f *testing.F) {
	for regime := byte(0); regime < regimes; regime++ {
		f.Add(randomOps(regime, 256))
	}
	f.Add([]byte{regimeSparse, 0, 0, 4, 0, 0, 0, 0, 255, 4, 255}) // -1 and 255<<32|255 in and out
	f.Fuzz(runFrontierOps)
}

// The index is sized by the members, not by the ids: one member with a
// huge id costs a minimal table (the id-indexed array this replaced
// would have asked for 4 TiB).
func TestFrontierSparseIDAllocatesLittle(t *testing.T) {
	f := NewFrontier()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Add(object.Object{ID: 1 << 40})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Errorf("Add(ID: 1<<40) on an empty frontier allocated %d B, want < 1 KiB", got)
	}
	if !f.Contains(1<<40) || f.Contains(0) || f.Contains(-1) {
		t.Error("membership wrong after a sparse Add")
	}
}

// A frontier at a steady size — a full sliding window — adds and removes
// for ever inside the table it reached: backward-shift deletion leaves
// nothing behind to rehash away, so the index follows the members' high-
// water mark and not the number of ids that went through.
func TestFrontierIndexIgnoresStreamLength(t *testing.T) {
	const held, stream = 64, 65536
	f := NewFrontier()
	for id := 0; id < stream; id++ {
		f.Remove(id - held)
		f.Add(object.Object{ID: id})
		if len(f.slots) > 256 {
			t.Fatalf("after %d ids through a frontier of %d: %d slots, want <= 256", id+1, held, len(f.slots))
		}
	}
	checkIndex(t, f)
	if f.Len() != held {
		t.Fatalf("Len = %d, want %d", f.Len(), held)
	}
}

// Over an append-only run every frontier's index stays within a constant
// factor of its list: both follow the frontier's high-water mark, neither
// the 20 000 ids of the stream.
func TestEngineIndexFollowsFrontiers(t *testing.T) {
	const nClusters, perCluster, dims, domSize, nObjs = 4, 4, 3, 8, 20000
	r := rand.New(rand.NewSource(11))
	doms := make([]*order.Domain, dims)
	for d := range doms {
		doms[d] = order.NewDomain(string(rune('a' + d)))
		for v := 0; v < domSize; v++ {
			doms[d].Intern(string(rune('A' + v)))
		}
	}
	var users []*pref.Profile
	var clusters []Cluster
	for g := 0; g < nClusters; g++ {
		var members []int
		var profs []*pref.Profile
		for m := 0; m < perCluster; m++ {
			p := pref.NewProfile(doms)
			for d := 0; d < dims; d++ {
				for e := 0; e < 6; e++ {
					p.Relation(d).Add(r.Intn(domSize), r.Intn(domSize)) // rejections fine
				}
			}
			members = append(members, len(users))
			users = append(users, p)
			profs = append(profs, p)
		}
		clusters = append(clusters, Cluster{Members: members, Common: pref.Common(profs)})
	}
	eng := NewFilterThenVerify(users, clusters, nil)
	for id := 0; id < nObjs; id++ {
		attrs := make([]int32, dims)
		for d := range attrs {
			attrs[d] = int32(r.Intn(domSize))
		}
		eng.Process(object.Object{ID: id, Attrs: attrs})
	}
	members := 0
	for i, f := range append(append([]*Frontier(nil), eng.UserFronts...), eng.ClusterFronts...) {
		checkIndex(t, f)
		members += f.Len()
		if len(f.slots) > 4*cap(f.list)+8 {
			t.Errorf("frontier %d: %d slots for a list of cap %d (len %d)", i, len(f.slots), cap(f.list), f.Len())
		}
	}
	if members == 0 {
		t.Fatal("every frontier is empty: the run checked nothing")
	}
}
