package paretomon

import (
	"hash/maphash"
	"math/bits"

	"repro/internal/object"
)

// registry is the object registry. Slots are in arrival order: slot i
// holds engine object id objBase+i. They live in fixed-size chunks whose
// arrays are never copied, so a slot stays where it is for as long as it
// is held and ingest pays nothing for the stream's length. A slot is a
// name, its interned values (the slice every engine reads and keeps, and
// alive yields as the candidates of every mend and restore) and a bit
// that RemoveObject clears, freeing the name; names maps alive names
// only, and, inside an ingest call, the names it has claimed
// (claimObject). An append-only registry only grows (objBase stays 0).
// Under a window W it is the window, the one every shard reads: id N's
// arrival retires slot N-W, as every shard retires id N-W on the same
// arrival. Its name is freed for re-use and blanked ("" is a retired
// slot); a chunk whose every slot is retired is dropped. The shards read
// a retired id's values until the ingest call returns, so the dropped
// chunk becomes the spare, the next chunk to open, only then (settle): at
// most W plus three chunks of slots are held however long the stream,
// and steady ingest of batches no longer than a chunk allocates no chunk.
// It sits behind a pointer so that the engine's view of it survives a
// follower's transplant of the state it belongs to.
type registry struct {
	names   nameIndex // alive name -> id
	objBase int       // id of chunks[0]'s first slot
	chunks  []chunk   // each of 1<<shift slots, all full but the last
	shift   uint
	dims    int   // attribute values per slot
	spare   chunk // blank, for the next chunk opened
	dropped chunk // the chunk dropped during this ingest call, the spare after it
}

// chunk is 1<<shift slots: slot i is names[i], attrs[i*dims:(i+1)*dims]
// and bit i of alive.
type chunk struct {
	names []string
	attrs []int32
	alive [1 << maxChunkShift / 64]uint64
}

// maxChunkShift caps a chunk at 256 slots.
const maxChunkShift = 8

// newRegistry returns an empty registry of dims values per slot for a
// monitor of window w (0: append-only). A chunk holds min(256, the
// largest power of two ≤ w) slots, so a windowed registry holds fewer
// than 2W slots, and up to two more chunks sit spare.
func newRegistry(w, dims int) *registry {
	r := &registry{shift: maxChunkShift, dims: dims}
	if w > 0 && w < 1<<maxChunkShift {
		r.shift = uint(bits.Len(uint(w)) - 1)
	}
	r.names.reg = r
	return r
}

// objectCount is the number of ids ever handed out. Caller holds mu.
func (r *registry) objectCount() int {
	n := len(r.chunks)
	if n == 0 {
		return r.objBase
	}
	return r.objBase + (n-1)<<r.shift + len(r.chunks[n-1].names)
}

// slot is id's chunk and its index there; id must be held. Caller holds
// mu.
func (r *registry) slot(id int) (*chunk, int) {
	i := id - r.objBase
	return &r.chunks[i>>r.shift], i & (1<<r.shift - 1)
}

// nameAt, attrsAt and aliveAt read id's slot; kill clears its bit.
func (r *registry) nameAt(id int) string   { c, i := r.slot(id); return c.names[i] }
func (r *registry) attrsAt(id int) []int32 { c, i := r.slot(id); return c.values(i, r.dims) }
func (r *registry) aliveAt(id int) bool    { c, i := r.slot(id); return c.isAlive(i) }
func (r *registry) kill(id int)            { c, i := r.slot(id); c.alive[i>>6] &^= 1 << (i & 63) }

// values is slot i's attribute values, capped; isAlive its bit.
func (c *chunk) values(i, dims int) []int32 { return c.attrs[i*dims : (i+1)*dims : (i+1)*dims] }
func (c *chunk) isAlive(i int) bool         { return c.alive[i>>6]&(1<<(i&63)) != 0 }

// alive yields the alive objects in arrival order: the engines' candidate
// source, fixed when the engine is built. The engine calls it under the
// monitor's write lock.
func (r *registry) alive(yield func(object.Object) bool) {
	id := r.objBase
	for k := range r.chunks {
		c := &r.chunks[k]
		for i := range c.names {
			if c.isAlive(i) && !yield(object.Object{ID: id + i, Attrs: c.values(i, r.dims)}) {
				return
			}
		}
		id += len(c.names)
	}
}

// push appends the slot of the next id, named name and alive or not,
// opening a chunk (the spare, if there is one) when the last is full, and
// returns the slot's values for the caller to fill.
func (r *registry) push(name string, alive bool) []int32 {
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1].names) == cap(r.chunks[n-1].names) {
		c := r.spare
		if c.names == nil {
			c = chunk{names: make([]string, 0, 1<<r.shift), attrs: make([]int32, r.dims<<r.shift)}
		}
		r.spare = chunk{}
		r.chunks = append(r.chunks, c)
		n++
	}
	c := &r.chunks[n-1]
	i := len(c.names)
	c.names = append(c.names, name)
	if alive {
		c.alive[i>>6] |= 1 << (i & 63)
	}
	return c.values(i, r.dims)
}

// retired reports that id, just blanked, was the last slot of the first
// chunk, and drops that chunk until the call settles: every slot in it is
// retired. A second chunk dropped in the same call goes to the collector.
func (r *registry) retired(id int) {
	if id-r.objBase != 1<<r.shift-1 {
		return
	}
	c := r.chunks[0]
	n := copy(r.chunks, r.chunks[1:])
	r.chunks[n] = chunk{}
	r.chunks = r.chunks[:n]
	r.objBase += len(c.names)
	c.names = c.names[:0]
	r.dropped = c
}

// settle ends an ingest call: the engine has let go of every id retired
// in it, so the chunk dropped in it, if any, is the spare now.
func (r *registry) settle() {
	if r.dropped.names != nil {
		r.spare, r.dropped = r.dropped, chunk{}
	}
}

// nameIndex maps each alive object name to its id. It is built the way
// core.Frontier's index is: a power-of-two table of uint64 slots, at most
// half full, linear probing, backward-shift deletion (no tombstones), and
// it stores no name. A slot holds a 32-bit hash tag of the name (never 0,
// so an empty slot is 0) over the id's low 32 bits; the id is resolved
// against the registry base, so it stays right past 2³² ids as long as
// fewer than 2³² are held. A slot's home is its tag's top bits: growing
// and deletion rehash no name. A probe reads a name back only when the
// tag matches: from the registry, or from pend for an id the registry
// does not hold yet.
//
// pend names the ids pendBase, pendBase+1, …: the batch being claimed,
// then the names an AddBatchOnce retry holds for its applied prefix
// (claimBatch). It is empty between ingest calls.
type nameIndex struct {
	reg      *registry
	slots    []uint64
	shift    uint // 64 - log2(len(slots))
	n        int  // names held
	pendBase int
	pend     []string
}

// minNameSlots is the first table: room for four names.
const minNameSlots = 8

// nameSeed keys the name hash. It differs per process: the names come
// from clients, and a fixed hash would let them collide on purpose.
var nameSeed = maphash.MakeSeed()

// nameTag is name's tag, in a slot's top half.
func nameTag(name string) uint64 {
	return maphash.String(nameSeed, name)&^0xffffffff | 1<<32
}

// id resolves a slot's low 32 bits to the id it holds.
func (x *nameIndex) id(v uint64) int {
	base := x.reg.objBase
	return base + int(uint32(v)-uint32(base))
}

// nameOf is the name claimed for id.
func (x *nameIndex) nameOf(id int) string {
	if i := id - x.pendBase; uint(i) < uint(len(x.pend)) {
		return x.pend[i]
	}
	return x.reg.nameAt(id)
}

// find returns the id name maps to. It writes nothing: readers call it
// under the read lock.
func (x *nameIndex) find(name string) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	tag, mask := nameTag(name), len(x.slots)-1
	for s := int(tag >> x.shift); ; s = (s + 1) & mask {
		v := x.slots[s]
		if v == 0 {
			return 0, false
		}
		if v&^0xffffffff == tag {
			if id := x.id(v); x.nameOf(id) == name {
				return id, true
			}
		}
	}
}

// claim maps name to id unless it maps to an id already, and reports
// whether it did: one probe sequence either way. id's name must be
// readable (nameOf) from here on.
func (x *nameIndex) claim(name string, id int) bool {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	tag, mask := nameTag(name), len(x.slots)-1
	s := int(tag >> x.shift)
	for ; x.slots[s] != 0; s = (s + 1) & mask {
		if v := x.slots[s]; v&^0xffffffff == tag && x.nameOf(x.id(v)) == name {
			return false
		}
	}
	x.slots[s] = tag | uint64(uint32(id))
	x.n++
	return true
}

// drop forgets name if it maps to id. The slot is matched whole: only
// id's own name can map to id, so no name is read.
func (x *nameIndex) drop(name string, id int) {
	if x.n == 0 {
		return
	}
	want, mask := nameTag(name)|uint64(uint32(id)), len(x.slots)-1
	s := int(want >> x.shift)
	for ; x.slots[s] != want; s = (s + 1) & mask {
		if x.slots[s] == 0 {
			return
		}
	}
	x.n--
	// Backward shift: s is a hole; pull back the first later slot of the
	// chain whose home is not past the hole, and repeat from the slot it
	// leaves, until the chain ends.
	for j := s; ; {
		j = (j + 1) & mask
		v := x.slots[j]
		if v == 0 {
			break
		}
		if h := int(v >> x.shift); (j-h)&mask >= (j-s)&mask {
			x.slots[s] = v
			s = j
		}
	}
	x.slots[s] = 0
}

// grow doubles the table and re-seats every slot at its home.
func (x *nameIndex) grow() {
	n := 2 * len(x.slots)
	if n == 0 {
		n = minNameSlots
	}
	old := x.slots
	x.slots = make([]uint64, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, v := range old {
		if v != 0 {
			s := int(v >> x.shift)
			for x.slots[s] != 0 {
				s = (s + 1) & (n - 1)
			}
			x.slots[s] = v
		}
	}
}

// stage makes objs' names readable as the names of ids base, base+1, …
// before the registry holds them, so that claims can be made for them.
func (x *nameIndex) stage(base int, objs []Object) {
	x.pendBase = base
	for _, o := range objs {
		x.pend = append(x.pend, o.Name)
	}
}

// hold claims name, unless it maps to an id already, for the id after
// every staged one, staging it there: claimBatch's hold on the names of a
// retry's applied prefix.
func (x *nameIndex) hold(name string) {
	x.pend = append(x.pend, name)
	if !x.claim(name, x.pendBase+len(x.pend)-1) {
		x.pend = x.pend[:len(x.pend)-1]
	}
}

// release drops the holds staged behind the first n staged names.
func (x *nameIndex) release(n int) {
	for i, name := range x.pend[n:] {
		x.drop(name, x.pendBase+n+i)
	}
	clear(x.pend[n:])
	x.pend = x.pend[:n]
}

// unstage empties pend; the registry holds whatever of it was applied. A
// pend grown past scratchKeep by one huge batch is let go.
func (x *nameIndex) unstage() {
	clear(x.pend)
	x.pend = x.pend[:0]
	if cap(x.pend) > scratchKeep {
		x.pend = nil
	}
}
