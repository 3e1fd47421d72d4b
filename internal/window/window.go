package window

import (
	"cmp"
	"fmt"
	"slices"

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
// place on removal. Object ids are assigned in arrival order, so arrival
// order is ascending-id order and membership is a binary search of the
// list itself: the buffer holds nothing but its members.
type buffer struct {
	list []object.Object
}

func newBuffer() *buffer { return &buffer{} }

// find returns the position of the member with the given id, or the
// position it would be inserted at and false.
func (b *buffer) find(id int) (int, bool) {
	return slices.BinarySearchFunc(b.list, id, func(o object.Object, id int) int {
		return cmp.Compare(o.ID, id)
	})
}

// add admits an arriving object: the youngest, so it goes last. Anything
// older (a restore handing objects out of order) goes through insert.
func (b *buffer) add(o object.Object) {
	if n := len(b.list); n > 0 && o.ID <= b.list[n-1].ID {
		b.insert(o)
		return
	}
	b.list = append(b.list, o)
}

func (b *buffer) remove(id int) {
	if i, ok := b.find(id); ok {
		b.list = slices.Delete(b.list, i, i+1)
	}
}

// evictDominated deletes every buffered object the prepared object
// dominates, preserving arrival order, and returns the number of
// comparisons made (one per buffered object).
func (b *buffer) evictDominated(po *pref.Probe) int {
	n := len(b.list)
	kept := b.list[:0]
	for _, o := range b.list {
		if !po.Dominates(o) {
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
	_, ok := b.find(id)
	return ok
}

// insert adds o at its arrival position; inserting a member is a no-op.
// Lifecycle mends use it to re-admit objects mid-buffer.
func (b *buffer) insert(o object.Object) {
	if i, ok := b.find(o.ID); !ok {
		b.list = slices.Insert(b.list, i, o)
	}
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
