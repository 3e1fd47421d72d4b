package window

import (
	"cmp"
	"slices"

	"repro/internal/object"
	"repro/internal/pref"
)

// noShield marks a buffer entry that no alive object dominates: a member
// of the frontier the buffer backs.
const noShield = -1

// noTwin marks an arrival whose walk ended on no twin.
const noTwin = -1

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
//
// Beside each entry sits also whether a younger twin of it — an object
// with the same tuple under the buffer's relation — is buffered. Twins
// have the same dominators, so the younger twins of an entry are buffered
// too and share its shield: an entry of P with that bit set leaves P with
// a twin still in it.
type buffer struct {
	list    []object.Object
	shield  []int  // shield[i] belongs to list[i]
	younger []bool // younger[i]: a younger twin of list[i] is buffered
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
	b.younger = slices.Delete(b.younger, i, i+1)
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
// dominates, or is dominated by, so is the other; that twin is the
// youngest one buffered, and now has a younger twin. arrive returns
// o_in's shield (noShield: o_in enters P), the id of the twin that ended
// the walk (noTwin if none did), the comparisons made, and evicted.
//
//paretomon:hotpath
func (b *buffer) arrive(po *pref.Probe, oin object.Object, evicted []object.Object) (shield, twin, cmps int, _ []object.Object) {
	shield, twin = noShield, noTwin
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
			shield, twin = b.shield[i], b.list[i].ID
			b.younger[i] = true
			break walk
		}
		if w--; w != i {
			b.list[w], b.shield[w], b.younger[w] = b.list[i], b.shield[i], b.younger[i]
		}
	}
	if gap := w - (i + 1); gap > 0 { // evictions left a gap above the entries the walk did not reach
		copy(b.list[i+1:], b.list[w:n])
		copy(b.shield[i+1:], b.shield[w:n])
		copy(b.younger[i+1:], b.younger[w:n])
		clear(b.list[n-gap : n]) // do not pin the evicted objects' Attrs
		n -= gap
	}
	b.list = append(b.list[:n], oin)
	b.shield = append(b.shield[:n], shield)
	b.younger = append(b.younger[:n], false)
	return shield, twin, cmps, evicted
}

// expiring returns the first entry if it is id, the oldest alive object.
// That object has outlived every object that could dominate it, so if it
// is buffered at all it is the first entry and a member of P.
func (b *buffer) expiring(id int) (object.Object, bool) {
	if len(b.list) == 0 || b.list[0].ID != id {
		return object.Object{}, false
	}
	return b.list[0], true
}

// expire retires the first entry, which expiring found: the entries it
// shields have now outlived their last dominator and enter P, in arrival
// order, without a single comparison. expire appends them to promoted,
// and reports whether a younger twin of the retired entry is buffered —
// then in P, and the retired entry shielded nothing.
//
//paretomon:hotpath
func (b *buffer) expire(promoted []object.Object) (_ []object.Object, twin bool) {
	id, twin := b.list[0].ID, b.younger[0]
	b.removeAt(0)
	for i, s := range b.shield {
		if s == id {
			b.shield[i] = noShield
			promoted = append(promoted, b.list[i])
		}
	}
	return promoted, twin
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
