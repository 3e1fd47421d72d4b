package pref

import (
	"repro/internal/object"
	"repro/internal/order"
)

// Union is the per-attribute union of several profiles' relations, kept
// as one dense n×n byte table per attribute: cell (x, y) has
// order.RelLeft set when some included profile has x ≻ y and
// order.RelRight when some profile has y ≻ x. The Rel codes are those
// bits already, so a cell is the OR of the profiles' Rel(x, y).
//
// It is a screen, not a relation: the union of partial orders need not
// be one. What it answers is a necessary condition — if some included
// profile has a ≻ b, then on every attribute where the two differ some
// profile prefers a's value, so the AND over those attributes keeps
// RelLeft (UnionProbe.Mask). A mask without RelLeft therefore rules out
// a ≻ b for every profile at once, and a mask of 0 says a and b are
// incomparable for all of them.
//
// A value interned after the last Reset lies outside the tables and reads
// as unordered against every other value: while the union is current, no
// included relation can order it, because ordering it changes a relation,
// and whoever changes an included relation must Reset and Include again.
// A domain past order.TableMaxN gets no table, and its lookups constrain
// nothing.
//
// The zero Union is empty; Reset and Include rebuild it in place.
type Union struct {
	tabs []unionTable // one per attribute
}

type unionTable struct {
	n     int     // values covered; -1 for a domain past order.TableMaxN
	cells []uint8 // cells[x*n+y]
}

// unordered is the row of a value the table does not reach: every lookup
// in it misses.
var unordered = []uint8{}

// row returns x's row: unordered where x was interned after the build,
// nil where the domain has no table.
func (t *unionTable) row(x int) []uint8 {
	switch {
	case t.n < 0:
		return nil
	case uint(x) >= uint(t.n):
		return unordered
	}
	return t.cells[x*t.n : (x+1)*t.n]
}

// Reset empties u over doms, sized to the values interned so far and
// reusing its storage where it is large enough.
func (u *Union) Reset(doms []*order.Domain) {
	if cap(u.tabs) < len(doms) {
		u.tabs = make([]unionTable, len(doms))
	}
	u.tabs = u.tabs[:len(doms)]
	for d, dom := range doms {
		t := &u.tabs[d]
		t.n = dom.Size()
		if t.n > order.TableMaxN {
			t.n, t.cells = -1, t.cells[:0]
			continue
		}
		if cap(t.cells) < t.n*t.n {
			t.cells = make([]uint8, t.n*t.n)
			continue
		}
		t.cells = t.cells[:t.n*t.n]
		clear(t.cells)
	}
}

// Include ORs p's relations into u. p must be over the domains u was
// Reset with, and order no value interned since.
func (u *Union) Include(p *Profile) {
	for d, r := range p.rels {
		t := &u.tabs[d]
		if t.n < 0 {
			continue
		}
		r.ForEachTuple(func(x, y int) {
			if x >= t.n || y >= t.n {
				panic("pref: Union.Include: a relation orders a value interned after Reset")
			}
			t.cells[x*t.n+y] |= order.RelLeft
			t.cells[y*t.n+x] |= order.RelRight
		})
	}
}

// UnionProbe is a Union prepared against one fixed object a, in the shape
// of Probe: each attribute's row is resolved once, and every Mask is one
// byte load per attribute on which the two objects differ.
type UnionProbe struct {
	attrs  []int32
	inline [probeInline][]uint8
	spill  [][]uint8
}

// Prepare fills pr for screening a against many objects under u.
func (u *Union) Prepare(a object.Object, pr *UnionProbe) {
	n := len(u.tabs)
	pr.attrs, pr.spill = a.Attrs[:n], nil
	rows := pr.inline[:]
	if n > probeInline {
		pr.spill = make([][]uint8, n)
		rows = pr.spill
	}
	for d := range u.tabs {
		rows[d] = u.tabs[d].row(int(a.Attrs[d]))
	}
}

// Mask returns the AND, over the attributes on which a and b differ, of
// the union's cells (a_d, b_d): RelLeft survives only if some profile
// could have a ≻ b, RelRight only if some could have b ≻ a, and 0 means
// a and b are incomparable for every included profile. Identical objects
// get RelLeft|RelRight; a difference on a value interned after the build
// gives 0, one on a domain without a table leaves the mask as it is.
//
//paretomon:hotpath
func (pr *UnionProbe) Mask(b object.Object) uint8 {
	rows := pr.spill
	if rows == nil {
		rows = pr.inline[:len(pr.attrs)]
	}
	m := order.RelLeft | order.RelRight
	for d, av := range pr.attrs {
		bv := b.Attrs[d]
		if av == bv {
			continue
		}
		row := rows[d]
		if uint(bv) < uint(len(row)) {
			if m &= row[bv]; m == 0 {
				return 0
			}
		} else if row != nil {
			return 0
		}
	}
	return m
}
