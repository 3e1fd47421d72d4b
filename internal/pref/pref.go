package pref

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/order"
)

// Cmp is the outcome of comparing two objects under a profile.
type Cmp int8

const (
	// Incomparable: neither object dominates the other and they are not
	// identical.
	Incomparable Cmp = iota
	// Left: the first object dominates the second (a ≻ b).
	Left
	// Right: the second object dominates the first (b ≻ a).
	Right
	// Identical: the objects agree on every attribute (a = b, Def. 3.2).
	Identical
)

func (c Cmp) String() string {
	switch c {
	case Left:
		return "Left"
	case Right:
		return "Right"
	case Identical:
		return "Identical"
	default:
		return "Incomparable"
	}
}

// Profile is one user's (or one virtual user's / cluster's) preferences:
// rels[d] is the strict partial order over attribute d's domain.
type Profile struct {
	doms []*order.Domain
	rels []*order.Relation
}

// NewProfile creates a profile with an empty relation per domain.
func NewProfile(doms []*order.Domain) *Profile {
	p := &Profile{doms: doms, rels: make([]*order.Relation, len(doms))}
	for i, d := range doms {
		p.rels[i] = order.NewRelation(d)
	}
	return p
}

// Dims returns the number of attributes.
func (p *Profile) Dims() int { return len(p.rels) }

// Domains returns the attribute domains (not to be mutated structurally).
func (p *Profile) Domains() []*order.Domain { return p.doms }

// Relation returns the preference relation on attribute d.
func (p *Profile) Relation(d int) *order.Relation { return p.rels[d] }

// SetRelation replaces the relation on attribute d. The relation must be
// over the profile's domain for d.
func (p *Profile) SetRelation(d int, r *order.Relation) {
	if r.Dom() != p.doms[d] {
		panic(fmt.Sprintf("pref: relation domain %q does not match attribute %d (%q)",
			r.Dom().Name(), d, p.doms[d].Name()))
	}
	p.rels[d] = r
}

// Clone deep-copies the profile (shared domains, copied relations).
func (p *Profile) Clone() *Profile {
	c := &Profile{doms: p.doms, rels: make([]*order.Relation, len(p.rels))}
	for i, r := range p.rels {
		c.rels[i] = r.Clone()
	}
	return c
}

// Rehome deep-copies the profile onto another domain set (clones of the
// originals, value tables identical). Monitors use it at construction so
// every profile they hold — community members and later AddUser arrivals
// alike — shares the monitor's own domain instances.
func (p *Profile) Rehome(doms []*order.Domain) *Profile {
	if len(doms) != len(p.doms) {
		panic(fmt.Sprintf("pref: rehoming %d-attribute profile onto %d domains", len(p.doms), len(doms)))
	}
	c := &Profile{doms: doms, rels: make([]*order.Relation, len(p.rels))}
	for i, r := range p.rels {
		c.rels[i] = r.CloneOnto(doms[i])
	}
	return c
}

// Project returns a profile restricted to the first d attributes, sharing
// the underlying relations. Used by the dimensionality sweeps.
func (p *Profile) Project(d int) *Profile {
	return &Profile{doms: p.doms[:d:d], rels: p.rels[:d:d]}
}

// Size returns the total number of preference tuples across attributes.
func (p *Profile) Size() int {
	n := 0
	for _, r := range p.rels {
		n += r.Size()
	}
	return n
}

// probeInline is the attribute count a Probe holds without touching the
// heap; the paper's datasets have 4–5 attributes.
const probeInline = 8

// Probe is a profile prepared against one fixed object a: the engines'
// scan loops hold one operand fixed (the arriving, expiring or mended
// object) while walking a frontier or buffer, so everything that depends
// only on (profile, a) — each attribute's row of the dense closure table —
// is resolved once by Profile.Prepare and every comparison of the scan is
// one byte load per attribute. A Probe lives on the caller's stack and is
// valid until the profile's relations are next mutated.
type Probe struct {
	p     *Profile
	attrs []int32 // a's values, one per profile attribute
	// rows[d][y] == rels[d].Rel(attrs[d], y); a row is short or nil where
	// the table does not reach. Profiles wider than probeInline spill to
	// the heap. (A single slice aliasing the inline array would make every
	// Probe escape: a pointer into itself stored through pr.)
	inline [probeInline][]uint8
	spill  [][]uint8
}

// Prepare fills pr for comparing a against many objects under p.
func (p *Profile) Prepare(a object.Object, pr *Probe) {
	n := len(p.rels)
	pr.p, pr.attrs, pr.spill = p, a.Attrs[:n], nil
	rows := pr.inline[:]
	if n > probeInline {
		pr.spill = make([][]uint8, n)
		rows = pr.spill
	}
	for d, r := range p.rels {
		rows[d] = r.Row(int(a.Attrs[d]))
	}
}

// Compare evaluates the prepared object a against b in a single pass over
// the attributes (Def. 3.2): a dominates b iff a is equal or preferred on
// every attribute and strictly preferred on at least one. If on any
// attribute the two values are distinct and unrelated, neither object can
// dominate the other and Incomparable is returned immediately; likewise
// once a strictly-better attribute has been seen in both directions. Each
// attribute costs one load from the prepared row; a value the row does not
// reach (interned after the table was published, or a domain too large for
// a table) takes the exact Relation.Rel path instead.
//
//paretomon:hotpath
func (pr *Probe) Compare(b object.Object) Cmp {
	rows := pr.spill
	if rows == nil {
		rows = pr.inline[:len(pr.attrs)]
	}
	aBetter, bBetter := false, false
	for d, av := range pr.attrs {
		bv := b.Attrs[d]
		if av == bv {
			continue
		}
		var rel uint8
		if row := rows[d]; uint(bv) < uint(len(row)) {
			rel = row[bv]
		} else {
			rel = pr.p.rels[d].Rel(int(av), int(bv))
		}
		switch rel {
		case order.RelLeft:
			if bBetter {
				return Incomparable
			}
			aBetter = true
		case order.RelRight:
			if aBetter {
				return Incomparable
			}
			bBetter = true
		default:
			return Incomparable
		}
	}
	switch {
	case aBetter:
		return Left
	case bBetter:
		return Right
	default:
		return Identical
	}
}

// Row returns the prepared row of attribute d: row[y] is the Rel code of
// the prepared object's value against value y, for every y < len(row).
// It is nil where the table does not reach the prepared value (interned
// after the table was published, or a domain past order.TableMaxN).
func (pr *Probe) Row(d int) []uint8 {
	if pr.spill != nil {
		return pr.spill[d]
	}
	return pr.inline[d]
}

// Dominates reports whether the prepared object dominates b (a ≻ b).
func (pr *Probe) Dominates(b object.Object) bool { return pr.Compare(b) == Left }

// DominatedBy reports whether b dominates the prepared object (b ≻ a).
func (pr *Probe) DominatedBy(b object.Object) bool { return pr.Compare(b) == Right }

// Compare evaluates one pairwise object comparison under the profile: a
// one-shot Prepare and Probe.Compare. Scans that hold a fixed should
// Prepare once themselves.
func (p *Profile) Compare(a, b object.Object) Cmp {
	var pr Probe
	p.Prepare(a, &pr)
	return pr.Compare(b)
}

// Dominates reports whether a ≻ b under the profile.
func (p *Profile) Dominates(a, b object.Object) bool {
	return p.Compare(a, b) == Left
}

// Common returns the common preference profile of users (Def. 4.1):
// per attribute, the intersection of all users' relations. It costs one
// Clone of the first member, narrowed in place by each further one. It
// panics on an empty user set — the common preferences of nobody are
// undefined.
func Common(users []*Profile) *Profile {
	if len(users) == 0 {
		panic("pref: Common of empty user set")
	}
	c := users[0].Clone()
	for _, u := range users[1:] {
		for d, r := range c.rels {
			r.IntersectWith(u.rels[d])
		}
	}
	return c
}

// Subsumes reports whether every preference tuple of q is also in p
// (≻_q ⊆ ≻_p on every attribute). Theorem 4.5's proof relies on the common
// profile being subsumed by every member; tests use this to verify it.
func (p *Profile) Subsumes(q *Profile) bool {
	for d := range p.rels {
		sub := true
		q.rels[d].ForEachTuple(func(x, y int) {
			if !p.rels[d].Has(x, y) {
				sub = false
			}
		})
		if !sub {
			return false
		}
	}
	return true
}

// Equal reports whether two profiles contain exactly the same relations.
func (p *Profile) Equal(q *Profile) bool {
	if len(p.rels) != len(q.rels) {
		return false
	}
	for d := range p.rels {
		if !p.rels[d].Equal(q.rels[d]) {
			return false
		}
	}
	return true
}
