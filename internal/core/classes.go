package core

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"

	"repro/internal/object"
)

// TupleClasses is a shard's table of alive attribute tuples. Dominance
// (Def. 3.2) reads attribute values only, so identical tuples dominate
// and are dominated identically: an exact Pareto frontier over the alive
// objects is a union of whole tuple classes. The exact append-only
// engines therefore keep one frontier member, one C_o and one scan entry
// per *class* — the key in Frontier and TargetTracker is the class id, the
// member object is the class's representative (class id, founder's Attrs)
// — and object ids reappear only at the engine surface (UserFrontier,
// Targets, CaptureState expand; RemoveObject, RestoreState and the
// lifecycle candidate lists collapse).
//
// The table holds every alive tuple, dominated ones included, so Resolve
// can tell an arrival whose tuple is alive (a twin: it joins exactly the
// frontiers its class is in, answered from C_class without a scan) from a
// new tuple (which founds a class and is scanned as Algs. 1–2 prescribe).
// It is three maps: Attrs → class (slots: open-addressed, keyless like
// Frontier.slots, deletion by backward shift, sized by the alive distinct
// tuples), object id → class, and per class its member ids in arrival
// order (links: one id-indexed entry per arrival holding the class and the
// next twin, so a twin allocates nothing). A class shares its founder's
// Attrs and retires — id recycled — when its last member is removed.
//
// The zero value is off: Resolve answers "new tuple" with the object
// itself, every object is its own class keyed by its own id, and nothing
// is stored. The windowed engines (the window ages ids; a class would
// have to hand its membership on at every twin's expiry) and the
// approximate engine (P̂_c is what the procedure leaves, Sec. 6.2: a twin
// can sit outside P̂_c while a later copy's scan would admit it) run that
// way.
type TupleClasses struct {
	on      bool
	classes []tupleClass // class id -> class; a retired id has head == noID
	retired []int32      // class ids free for the next founder
	slots   []int32      // 1 + class id of the tuple probing to this slot; 0 = empty
	shift   uint         // 64 - log2(len(slots))
	live    int          // classes indexed by slots
	links   []idLink     // object id -> class and next twin

	reps []object.Object // Collapse's result, reused across calls
	// keep is Collapse's yield, bound to self, the table it was made for:
	// a range over the source would allocate its loop body on every call.
	keep func(object.Object) bool
	self *TupleClasses
}

type tupleClass struct {
	attrs      []int32 // the founder's Attrs; shared with it, never written
	hash       uint64
	head, tail int32 // first and last member id; arrival order runs through links
}

type idLink struct {
	class int32 // 1 + class id; 0 = the id is not alive in this shard
	next  int32 // the next twin by arrival; noID at the tail
}

const noID = -1

// enable turns the table on. Only a freshly built, empty engine may, and
// only this package's constructors can: NewFilterThenVerify (and with it
// NewBaseline) and NewSharded, once CheckSubsumed has passed the cluster
// relations.
func (t *TupleClasses) enable() { t.on = true }

// hashAttrs mixes a tuple into 64 bits whose top bits pick the home slot.
func hashAttrs(attrs []int32) uint64 {
	h := uint64(len(attrs))
	for _, v := range attrs {
		h = (h ^ uint64(uint32(v))) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h * 0x9E3779B97F4A7C15
}

// lookup returns the class of the alive tuple attrs (hash h), or -1.
func (t *TupleClasses) lookup(h uint64, attrs []int32) int {
	if t.live == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		v := t.slots[s]
		if v == 0 {
			return -1
		}
		if cl := &t.classes[v-1]; cl.hash == h && slices.Equal(cl.attrs, attrs) {
			return int(v - 1)
		}
	}
}

// Resolve registers the arriving object under its tuple's class and
// returns the class representative — the object every frontier, C_o and
// scan sees in its place — and whether the tuple was already alive. A
// twin has nothing left to decide: its targets are C_class.
//
//paretomon:hotpath
func (t *TupleClasses) Resolve(o object.Object) (rep object.Object, twin bool) {
	if !t.on {
		return o, false
	}
	h := hashAttrs(o.Attrs)
	ci := t.lookup(h, o.Attrs)
	if twin = ci >= 0; !twin {
		ci = t.found(o.Attrs, h)
	}
	t.link(o.ID, ci)
	return t.rep(ci), twin
}

// rep is class ci's representative: the member object frontiers hold.
func (t *TupleClasses) rep(ci int) object.Object {
	return object.Object{ID: ci, Attrs: t.classes[ci].attrs}
}

// found opens a class for a tuple that is not alive and returns its id.
func (t *TupleClasses) found(attrs []int32, h uint64) int {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	var ci int
	if n := len(t.retired); n > 0 {
		ci, t.retired = int(t.retired[n-1]), t.retired[:n-1]
	} else {
		ci = len(t.classes)
		t.classes = append(t.classes, tupleClass{})
	}
	t.classes[ci] = tupleClass{attrs: attrs, hash: h, head: noID, tail: noID}
	mask := len(t.slots) - 1
	s := int(h >> t.shift)
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = int32(ci + 1)
	t.live++
	return ci
}

// grow doubles the slot table and re-indexes every alive class.
func (t *TupleClasses) grow() {
	n := 2 * len(t.slots)
	if n == 0 {
		n = minSlots
	}
	t.slots = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for ci := range t.classes {
		if t.classes[ci].head == noID {
			continue // retired
		}
		s := int(t.classes[ci].hash >> t.shift)
		for t.slots[s] != 0 {
			s = (s + 1) & (n - 1)
		}
		t.slots[s] = int32(ci + 1)
	}
}

// link appends object id to class ci's members; like Frontier.Add, an id
// that is already alive is left where it is.
func (t *TupleClasses) link(id, ci int) {
	for len(t.links) <= id {
		t.links = append(t.links, idLink{})
	}
	if t.links[id].class != 0 {
		return
	}
	t.links[id] = idLink{class: int32(ci + 1), next: noID}
	cl := &t.classes[ci]
	if cl.head == noID {
		cl.head = int32(id)
	} else {
		t.links[cl.tail].next = int32(id)
	}
	cl.tail = int32(id)
}

// classOf returns the class of an alive object id. With the table off
// every id is its own class.
func (t *TupleClasses) classOf(id int) (int, bool) {
	if !t.on {
		return id, true
	}
	if id < 0 || id >= len(t.links) || t.links[id].class == 0 {
		return 0, false
	}
	return int(t.links[id].class - 1), true
}

// Leave takes the removed object out of its class and returns the class
// representative and whether the class died with it. While a twin lives
// on, the removal changes no frontier: whatever o shielded the twin still
// shields. The last member retires the class — the caller removes the
// representative from the frontiers and mends, then the id is free for
// the next founder.
func (t *TupleClasses) Leave(o object.Object) (rep object.Object, last bool) {
	ci, ok := t.classOf(o.ID)
	if !t.on || !ok {
		return o, ok
	}
	cl := &t.classes[ci]
	id := int32(o.ID)
	next := t.links[id].next
	if cl.head == id {
		cl.head = next
	} else {
		m := cl.head
		for t.links[m].next != id {
			m = t.links[m].next
		}
		t.links[m].next = next
		if cl.tail == id {
			cl.tail = m
		}
	}
	t.links[id] = idLink{}
	rep = t.rep(ci)
	if cl.head != noID {
		return rep, false
	}
	t.unindex(ci)
	*cl = tupleClass{head: noID, tail: noID}
	t.retired = append(t.retired, int32(ci))
	return rep, true
}

// unindex deletes class ci from the slot table by backward shift (see
// Frontier.Remove).
func (t *TupleClasses) unindex(ci int) {
	mask := len(t.slots) - 1
	s := int(t.classes[ci].hash >> t.shift)
	for t.slots[s] != int32(ci+1) {
		s = (s + 1) & mask
	}
	for j := s; ; {
		j = (j + 1) & mask
		v := t.slots[j]
		if v == 0 {
			break
		}
		if h := int(t.classes[v-1].hash >> t.shift); (j-h)&mask >= (j-s)&mask {
			t.slots[s] = v
			s = j
		}
	}
	t.slots[s] = 0
	t.live--
}

// Collapse reduces the arrival-ordered alive objects to one
// representative per class, ordered by each class's oldest member: the
// candidate list a mend or a replay scans. The result is the table's
// scratch, valid until the next Collapse. With the table off every object
// is its own representative.
func (t *TupleClasses) Collapse(alive iter.Seq[object.Object]) []object.Object {
	if t.self != t { // first use, or a copy of a table that was used
		t.self, t.keep = t, t.collect
	}
	t.reps = t.reps[:0]
	alive(t.keep)
	return t.reps
}

// Reserve sizes Collapse's scratch for n alive objects: a windowed
// engine, which never has more than its window alive, reserves it once,
// where the copy of the window it kept before lived.
func (t *TupleClasses) Reserve(n int) { t.reps = slices.Grow(t.reps[:0], n) }

// collect is Collapse's step for one alive object.
func (t *TupleClasses) collect(o object.Object) bool {
	if !t.on {
		t.reps = append(t.reps, o)
	} else if ci, ok := t.classOf(o.ID); ok && int(t.classes[ci].head) == o.ID {
		t.reps = append(t.reps, t.rep(ci))
	}
	return true
}

// AppendMemberIDs appends the object ids a frontier stands for — every
// member of every class in it, classes in scan order, twins in arrival
// order — to dst.
func (t *TupleClasses) AppendMemberIDs(dst []int, f *Frontier) []int {
	dst = slices.Grow(dst, f.Len())
	for _, rep := range f.Objects() {
		if !t.on {
			dst = append(dst, rep.ID)
			continue
		}
		for m := t.classes[rep.ID].head; m != noID; m = t.links[m].next {
			dst = append(dst, int(m))
		}
	}
	return dst
}

// MemberObjects is AppendMemberIDs with the attributes attached: the
// frontier as a captured EngineState spells it, one object per id.
func (t *TupleClasses) MemberObjects(f *Frontier) []object.Object {
	if !t.on {
		return append([]object.Object(nil), f.Objects()...)
	}
	var out []object.Object
	for _, rep := range f.Objects() {
		for m := t.classes[rep.ID].head; m != noID; m = t.links[m].next {
			out = append(out, object.Object{ID: int(m), Attrs: rep.Attrs})
		}
	}
	return out
}

// Restore refills an empty frontier from a captured member list, one
// representative per class in first-appearance order — the scan order
// the capture expanded — mirroring membership into tr for a user
// frontier (tr nil: a filter frontier). The objects must be alive: with
// the table on, registered by an earlier Resolve.
func (t *TupleClasses) Restore(f *Frontier, objs []object.Object, tr interface{ AddTarget(key, user int) }, user int) error {
	for _, o := range objs {
		ci, ok := t.classOf(o.ID)
		if !ok {
			return fmt.Errorf("core: state holds object %d, which is not among the alive objects", o.ID)
		}
		if t.on {
			o = t.rep(ci)
		}
		f.Add(o)
		if tr != nil {
			tr.AddTarget(o.ID, user)
		}
	}
	return nil
}
