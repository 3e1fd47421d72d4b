package window

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/object"
	"repro/internal/pref"
)

// ring stores the W most recent objects so the expiring object is
// available when its successor arrives.
type ring struct {
	buf  []object.Object
	w    int
	seen int // total objects pushed
}

func newRing(w int) *ring {
	if w <= 0 {
		panic(fmt.Sprintf("window: window size must be positive, got %d", w))
	}
	return &ring{buf: make([]object.Object, w), w: w}
}

// push inserts o and returns the object it evicts, if the window was
// full. The evicted object may be a tombstone (ID < 0) left by an
// explicit removal; callers skip expiry work for those.
func (r *ring) push(o object.Object) (object.Object, bool) {
	slot := r.seen % r.w
	var out object.Object
	full := r.seen >= r.w
	if full {
		out = r.buf[slot]
	}
	r.buf[slot] = o
	r.seen++
	return out, full
}

// tombstoneID marks a ring slot whose object was explicitly removed. The
// slot keeps aging — removal does not extend other objects' lifetimes —
// but expiry of a tombstone is a no-op.
const tombstoneID = -1

// knockOut tombstones the in-window slot holding object id, reporting
// whether it was found (false: the object already expired or was never
// in this window).
func (r *ring) knockOut(id int) bool {
	n := r.seen
	if n > r.w {
		n = r.w
	}
	for i := r.seen - n; i < r.seen; i++ {
		slot := i % r.w
		if r.buf[slot].ID == id {
			r.buf[slot] = object.Object{ID: tombstoneID}
			return true
		}
	}
	return false
}

// aliveTail returns the in-window objects in arrival order, skipping
// tombstones: the candidate set for lifecycle mends.
func (r *ring) aliveTail() []object.Object {
	n := r.seen
	if n > r.w {
		n = r.w
	}
	out := make([]object.Object, 0, n)
	for i := r.seen - n; i < r.seen; i++ {
		if o := r.buf[i%r.w]; o.ID >= 0 {
			out = append(out, o)
		}
	}
	return out
}

// buffer is an arrival-ordered Pareto frontier buffer. Mending must walk
// candidates in arrival order (an earlier buffered object may dominate a
// later one; admitting the earlier one first lets the frontier scan reject
// the later one), so the buffer keeps insertion order and compacts in
// place on removal.
type buffer struct {
	list []object.Object
	ids  bitset.Set // membership; object ids are dense, so a bitset beats a map
}

func newBuffer() *buffer { return &buffer{} }

func (b *buffer) add(o object.Object) {
	if b.ids.Contains(o.ID) {
		return
	}
	b.ids.Add(o.ID)
	b.list = append(b.list, o)
}

func (b *buffer) remove(id int) {
	if !b.has(id) {
		return
	}
	b.ids.Remove(id)
	for i, o := range b.list {
		if o.ID == id {
			b.list = append(b.list[:i], b.list[i+1:]...)
			return
		}
	}
}

// evictDominated deletes every buffered object the prepared object
// dominates, preserving arrival order, and returns the number of
// comparisons made (one per buffered object).
func (b *buffer) evictDominated(po *pref.Probe) int {
	n := len(b.list)
	kept := b.list[:0]
	for _, o := range b.list {
		if po.Dominates(o) {
			b.ids.Remove(o.ID)
		} else {
			kept = append(kept, o)
		}
	}
	b.list = kept
	return n
}

// objects returns the buffer in arrival order; callers must not mutate it.
func (b *buffer) objects() []object.Object { return b.list }

// has reports buffer membership.
func (b *buffer) has(id int) bool {
	return id >= 0 && b.ids.Contains(id)
}

// insert adds o at its arrival position. Object ids are assigned in
// arrival order, so the buffer's arrival order is ascending-ID order and
// the position is found by binary search. Lifecycle mends use it to
// re-admit objects mid-buffer; add only ever appends.
func (b *buffer) insert(o object.Object) {
	if b.ids.Contains(o.ID) {
		return
	}
	b.ids.Add(o.ID)
	i := sort.Search(len(b.list), func(i int) bool { return b.list[i].ID > o.ID })
	b.list = append(b.list, object.Object{})
	copy(b.list[i+1:], b.list[i:])
	b.list[i] = o
}

func (b *buffer) idSlice() []int {
	out := make([]int, 0, len(b.list))
	for _, o := range b.list {
		out = append(out, o.ID)
	}
	return out
}

// Monitor is the sliding-window engine interface, mirroring core.Monitor.
type Monitor interface {
	Process(o object.Object) []int
	UserFrontier(c int) []int
}
