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
// explicit removal; callers skip expiry work for those, and read the id
// it held through expiredID.
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

// tombstone marks a ring slot whose object, id, was explicitly removed.
// The slot keeps aging — removal does not extend other objects'
// lifetimes — but expiry of a tombstone is a no-op. It keeps the id,
// complemented, so that expiry can still retire the id's C_o slot.
func tombstone(id int) object.Object { return object.Object{ID: ^id} }

// expiredID is the object id an evicted ring slot held.
func expiredID(o object.Object) int {
	if o.ID < 0 {
		return ^o.ID
	}
	return o.ID
}

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
			r.buf[slot] = tombstone(id)
			return true
		}
	}
	return false
}

// aliveTail returns the in-window objects in arrival order, skipping
// tombstones: the candidate set for lifecycle mends.
func (r *ring) aliveTail() []object.Object {
	return slices.DeleteFunc(r.tail(), func(o object.Object) bool { return o.ID < 0 })
}

// noShield marks a buffer entry that no alive object dominates: a member
// of the frontier the buffer backs.
const noShield = -1

// buffer is a Pareto frontier buffer PB (Def. 7.4) in arrival order: the
// alive objects no succeeding object dominates under the buffer's
// relation. Object ids are assigned in arrival order, so arrival order is
// ascending-id order and membership is a binary search of the list.
//
// Beside each entry sits its shield: the id of its youngest alive
// dominator, or noShield. A dominator of an entry is older than it (a
// younger one would have evicted it), and the youngest of them is itself
// buffered (anything dominating that one dominates the entry too, and
// would be a younger dominator still, or younger than the entry). Objects
// expire in arrival order, so an entry's dominators die oldest first and
// the shield is the last to go: the frontier P is exactly the entries
// without one, and an entry joins P the moment its shield expires — see
// the package comment.
type buffer struct {
	list   []object.Object
	shield []int // shield[i] belongs to list[i]
}

func newBuffer() *buffer { return &buffer{} }

// find returns the position of the member with the given id, or the
// position it would be inserted at and false.
func (b *buffer) find(id int) (int, bool) {
	return slices.BinarySearchFunc(b.list, id, compareID)
}

// compareID orders an object against an id; ids ascend in arrival order.
func compareID(o object.Object, id int) int { return cmp.Compare(o.ID, id) }

func (b *buffer) removeAt(i int) {
	b.list = slices.Delete(b.list, i, i+1)
	b.shield = slices.Delete(b.shield, i, i+1)
}

// arrive admits o_in, prepared as po under the buffer's relation:
// Procedures updateParetoFrontierSW and refreshParetoBufferSW in one walk
// from the youngest entry to the oldest, one comparison an entry. An
// entry o_in dominates leaves the buffer (Theorem 7.2: it is out for
// good); if it had no shield it was in P, and is appended to evicted for
// the caller to take out of the frontiers. The first entry that dominates
// o_in ends the walk: it is o_in's youngest dominator, hence its shield,
// and nothing older can be dominated by o_in — the dominator would
// dominate it too, from a later arrival, so it is not buffered. A twin
// ends the walk as well and hands o_in its own shield: whatever either
// dominates, or is dominated by, so is the other. arrive returns o_in's
// shield (noShield: o_in enters P), the comparisons made, and evicted.
//
//paretomon:hotpath
func (b *buffer) arrive(po *pref.Probe, oin object.Object, evicted []object.Object) (shield, cmps int, _ []object.Object) {
	shield = noShield
	n := len(b.list)
	i, w := n-1, n // the walk's survivors collect in list[w:n]
walk:
	for ; i >= 0; i-- {
		cmps++
		switch po.Compare(b.list[i]) {
		case pref.Left:
			if b.shield[i] == noShield {
				evicted = append(evicted, b.list[i])
			}
			continue
		case pref.Right:
			shield = b.list[i].ID
			break walk
		case pref.Identical:
			shield = b.shield[i]
			break walk
		}
		if w--; w != i {
			b.list[w], b.shield[w] = b.list[i], b.shield[i]
		}
	}
	if gap := w - (i + 1); gap > 0 { // evictions left a gap above the entries the walk did not reach
		copy(b.list[i+1:], b.list[w:n])
		copy(b.shield[i+1:], b.shield[w:n])
		clear(b.list[n-gap : n]) // do not pin the evicted objects' Attrs
		n -= gap
	}
	b.list = append(b.list[:n], oin)
	b.shield = append(b.shield[:n], shield)
	return shield, cmps, evicted
}

// expire retires the oldest alive object, id. It has outlived every
// object that could dominate it, so if it is buffered at all it is the
// first entry and a member of P; the entries it shields have now outlived
// their last dominator and enter P, in arrival order, without a single
// comparison. expire reports whether id was buffered and appends the
// promoted entries to promoted.
//
//paretomon:hotpath
func (b *buffer) expire(id int, promoted []object.Object) (bool, []object.Object) {
	if len(b.list) == 0 || b.list[0].ID != id {
		return false, promoted
	}
	b.removeAt(0)
	for i, s := range b.shield {
		if s == id {
			b.shield[i] = noShield
			promoted = append(promoted, b.list[i])
		}
	}
	return true, promoted
}

// objects returns the buffer in arrival order; callers must not mutate it.
func (b *buffer) objects() []object.Object { return b.list }

func (b *buffer) idSlice() []int {
	out := make([]int, 0, len(b.list))
	for _, o := range b.list {
		out = append(out, o.ID)
	}
	return out
}
