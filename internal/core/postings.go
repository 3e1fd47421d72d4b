package core

import (
	"repro/internal/bitset"
	"repro/internal/order"
)

// wordBits is the number of scan positions one posting word covers.
const wordBits = 64

// valuePostings is the inverted index of one cluster's filter frontier
// P_U: per attribute d and value v, the scan positions whose member has
// value v on d. It is the Bitmap skyline method (Tan, Eng & Ooi, VLDB
// 2001) carried to partially ordered domains: a member can compare as
// anything but Incomparable with an arrival only if, on every attribute,
// its value equals the arrival's or is ordered with it, so the AND over
// the attributes of the ORed postings of those values names every member
// the filter scan needs to test (see FilterThenVerify.planIndexed).
//
// The arrival path keeps the postings in step with P_U — an append sets
// one bit per attribute, a swap-delete moves the last member's bits — and
// every other writer of P_U (the lifecycle calls, a restore) marks them
// stale; the next indexed scan rebuilds them from the scan list. Values
// at or past order.TableMaxN are counted in over and get no posting: no
// prepared row reaches them, so a frontier holding one scans linearly.
type valuePostings struct {
	fu    *Frontier       // the frontier the postings describe; nil while stale
	room  int             // positions every posting has words for
	post  [][]*bitset.Set // post[d][v]: the positions holding value v on attribute d
	count [][]int32       // count[d][v] == |post[d][v]|
	over  []int32         // members whose value on attribute d is order.TableMaxN or more
	near  [][]orderedVals // near[d][x]: the values ≻_U orders with x, read off x's row
}

// orderedVals is the list of values one prepared row orders with its own
// value — the row's nonzero cells — and the row it was read from. A
// published row never changes (a relation that mutates publishes a new
// table), so the list is current while the prepared row is the same
// slice, and holding the row keeps its table's memory from being reused
// meanwhile. The lifecycle calls, which are what changes a cluster's
// relation, drop the rows (forget), so no superseded table outlives the
// call that superseded it. Rows are at most order.TableMaxN long, so a
// value fits in 16 bits.
type orderedVals struct {
	row  []uint8
	vals []uint16
}

// current reports whether the postings describe fu. A nil receiver (the
// per-object engine keeps none) describes nothing.
func (p *valuePostings) current(fu *Frontier) bool { return p != nil && p.fu == fu }

// rebuild indexes fu's members from scratch: room for the positions up to
// the next power of two past fu.Len() (so appends rebuild only on
// doubling), one posting row per value below order.TableMaxN that the
// domains or the members hold, and the old rows reused when they are
// already that size.
func (p *valuePostings) rebuild(fu *Frontier, doms []*order.Domain) {
	room := wordBits
	for room <= fu.Len() {
		room *= 2
	}
	if len(p.post) != len(doms) {
		p.post = make([][]*bitset.Set, len(doms))
		p.count = make([][]int32, len(doms))
		p.over = make([]int32, len(doms))
		p.near = make([][]orderedVals, len(doms))
	}
	for d, dom := range doms {
		vals := dom.Size()
		for _, o := range fu.Objects() {
			vals = max(vals, int(o.Attrs[d])+1)
		}
		vals = min(vals, order.TableMaxN)
		if room != p.room || len(p.post[d]) != vals {
			p.post[d] = bitset.Rows(vals, room)
			p.count[d] = make([]int32, vals)
		} else {
			for v, s := range p.post[d] {
				s.Clear()
				p.count[d][v] = 0
			}
		}
		p.over[d] = 0
	}
	p.room = room
	for i, o := range fu.Objects() {
		p.add(i, o.Attrs)
	}
	p.fu = fu
}

// ordered returns the values row orders with x: row is x's prepared row
// on attribute d. The list is read off the row once per published table
// and reused by every scan of an arrival with value x.
func (p *valuePostings) ordered(d, x int, row []uint8) []uint16 {
	for len(p.near[d]) <= x {
		p.near[d] = append(p.near[d], orderedVals{})
	}
	e := &p.near[d][x]
	if len(e.row) != len(row) || &e.row[0] != &row[0] {
		e.row, e.vals = row, e.vals[:0]
		for v, r := range row {
			if r != order.RelNone {
				e.vals = append(e.vals, uint16(v))
			}
		}
	}
	return e.vals
}

// forget marks the postings stale and drops the rows the ordered-value
// lists were read from.
func (p *valuePostings) forget() {
	p.fu = nil
	for _, near := range p.near {
		for x := range near {
			near[x].row = nil
		}
	}
}

// add indexes attrs at scan position i, the position an append just
// filled. It reports false, changing nothing, when the postings have no
// room for i or no row for one of the values (interned after the last
// rebuild): the caller rebuilds.
func (p *valuePostings) add(i int, attrs []int32) bool {
	if i >= p.room {
		return false
	}
	for d, post := range p.post {
		if v := int(attrs[d]); v < order.TableMaxN && v >= len(post) {
			return false
		}
	}
	for d := range p.post {
		p.put(d, attrs[d], i)
	}
	return true
}

// remove updates the postings for fu's swap-delete of scan position i —
// the last member moves into i — and must run before fu.Remove.
func (p *valuePostings) remove(fu *Frontier, i int) {
	last := fu.Len() - 1
	gone, moved := fu.At(i).Attrs, fu.At(last).Attrs
	for d := range p.post {
		p.drop(d, gone[d], i)
		if i != last {
			p.drop(d, moved[d], last)
			p.put(d, moved[d], i)
		}
	}
}

func (p *valuePostings) put(d int, v int32, i int) {
	if v >= order.TableMaxN {
		p.over[d]++
		return
	}
	p.post[d][v].Add(i)
	p.count[d][v]++
}

func (p *valuePostings) drop(d int, v int32, i int) {
	if v >= order.TableMaxN {
		p.over[d]--
		return
	}
	p.post[d][v].Remove(i)
	p.count[d][v]--
}

// indexScan is the plan of one indexed filter scan, kept by the engine
// and reused across scans so that planning allocates nothing in steady
// state: the postings of the arrival's comparable values, attribute by
// attribute, and the attributes that narrow the scan, most selective
// first.
type indexScan struct {
	sets   []*bitset.Set
	groups []postingGroup
}

// postingGroup is one attribute's comparable values: sets[lo:hi] of the
// plan, together holding members frontier members.
type postingGroup struct {
	lo, hi, members int
}

// word returns the candidates among scan positions [64·w, 64·w+64): the
// AND over the plan's attributes of their comparable values' ORed
// postings. It stops at the first attribute that leaves no candidate.
//
//paretomon:hotpath
func (sc *indexScan) word(w int) uint64 {
	m := ^uint64(0)
	for _, g := range sc.groups {
		var or uint64
		for _, s := range sc.sets[g.lo:g.hi] {
			or |= s.Word(w)
		}
		if m &= or; m == 0 {
			break
		}
	}
	return m
}
