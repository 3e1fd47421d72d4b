package core

import (
	"math/bits"

	"repro/internal/object"
)

// Frontier is a mutable Pareto frontier: a set of objects none of which
// dominates another (under the owner's preference profile). Membership
// tests are O(1) expected; removal is swap-delete. Iteration order is the
// engine's scan order and is deterministic for a fixed input history.
//
// Membership is an open-addressed hash index over list, sized by the
// frontier and never by the stream: a power-of-two table of at least
// twice the members, linear probing from a multiplicative hash of the
// id. A slot holds 1 + the member's index in list (0 = empty) and the key
// is read back through list, so the table stores no keys and costs 4 B a
// slot. Deletion shifts the rest of the probe chain back instead of
// leaving a tombstone: a frontier that adds and removes for ever at a
// steady size (a full sliding window) never rehashes. Ids may be any int,
// dense or not — in the exact append-only engines they are tuple-class
// ids and a member is its class's representative (see TupleClasses).
type Frontier struct {
	list  []object.Object
	slots []int32 // 1 + index in list of the member probing to this slot; 0 = empty
	shift uint    // 64 - log2(len(slots)): home takes the hash's top bits
}

// minSlots is the first table: room for four members.
const minSlots = 8

// NewFrontier returns an empty frontier.
func NewFrontier() *Frontier {
	return &Frontier{}
}

// home is the slot a probe for id starts from.
func (f *Frontier) home(id int) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> f.shift)
}

// find returns the slot indexing the member with the given id, or -1.
// Members fill at most half the slots, so a probe always meets an empty
// one.
func (f *Frontier) find(id int) int {
	if len(f.list) == 0 {
		return -1
	}
	mask := len(f.slots) - 1
	for s := f.home(id); ; s = (s + 1) & mask {
		v := f.slots[s]
		if v == 0 {
			return -1
		}
		if f.list[v-1].ID == id {
			return s
		}
	}
}

// grow doubles the table and re-indexes every member from list.
func (f *Frontier) grow() {
	n := 2 * len(f.slots)
	if n == 0 {
		n = minSlots
	}
	f.slots = make([]int32, n)
	f.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i, o := range f.list {
		s := f.home(o.ID)
		for f.slots[s] != 0 {
			s = (s + 1) & (n - 1)
		}
		f.slots[s] = int32(i + 1)
	}
}

// Len returns the number of frontier objects.
func (f *Frontier) Len() int { return len(f.list) }

// Contains reports whether the object with the given id is in the frontier.
//
//paretomon:hotpath
func (f *Frontier) Contains(objID int) bool { return f.find(objID) >= 0 }

// ByID returns the member object with the given id.
func (f *Frontier) ByID(objID int) (object.Object, bool) {
	s := f.find(objID)
	if s < 0 {
		return object.Object{}, false
	}
	return f.list[f.slots[s]-1], true
}

// Add inserts o; inserting an object already present is a no-op.
//
//paretomon:hotpath
func (f *Frontier) Add(o object.Object) {
	if 2*(len(f.list)+1) > len(f.slots) {
		if f.find(o.ID) >= 0 {
			return
		}
		f.grow()
	}
	mask := len(f.slots) - 1
	s := f.home(o.ID)
	for ; f.slots[s] != 0; s = (s + 1) & mask {
		if f.list[f.slots[s]-1].ID == o.ID {
			return
		}
	}
	f.list = append(f.list, o)
	f.slots[s] = int32(len(f.list))
}

// Remove deletes the object with the given id, returning whether it was
// present.
//
//paretomon:hotpath
func (f *Frontier) Remove(objID int) bool {
	s := f.find(objID)
	if s < 0 {
		return false
	}
	i := int(f.slots[s]) - 1
	last := len(f.list) - 1
	mask := len(f.slots) - 1
	if i != last {
		// Swap-delete moves the last member into i: re-point its slot,
		// the one on its probe path that reads last+1.
		m := f.home(f.list[last].ID)
		for f.slots[m] != int32(last+1) {
			m = (m + 1) & mask
		}
		f.slots[m] = int32(i + 1)
		f.list[i] = f.list[last]
	}
	f.list[last] = object.Object{} // do not pin the departed member's Attrs
	f.list = f.list[:last]

	// Backward shift: s is a hole; pull back the first later member of
	// the chain whose home is not past the hole, and repeat from the slot
	// it leaves, until the chain ends.
	for j := s; ; {
		j = (j + 1) & mask
		v := f.slots[j]
		if v == 0 {
			break
		}
		if h := f.home(f.list[v-1].ID); (j-h)&mask >= (j-s)&mask {
			f.slots[s] = v
			s = j
		}
	}
	f.slots[s] = 0
	return true
}

// At returns the i-th object in scan order. Engines iterate by index so
// they can remove the current element and retry the same slot (swap-delete
// moves the last element into it).
func (f *Frontier) At(i int) object.Object { return f.list[i] }

// IDs returns the member object ids in unspecified order.
func (f *Frontier) IDs() []int {
	out := make([]int, len(f.list))
	for i, o := range f.list {
		out[i] = o.ID
	}
	return out
}

// Objects returns the member objects in scan order; the caller must not
// mutate the slice.
func (f *Frontier) Objects() []object.Object { return f.list }

// Clone returns an independent copy.
func (f *Frontier) Clone() *Frontier {
	return &Frontier{
		list:  append([]object.Object(nil), f.list...),
		slots: append([]int32(nil), f.slots...),
		shift: f.shift,
	}
}
