package core

import (
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// memberTableMin is the smallest shared cluster whose verify tier reads a
// member table. BenchmarkVerifyTier (one movie-community cluster, a
// 16 384-object stream) has the table tie with the per-member scans or
// lose to them at 8 members, run about a third faster at 16 and 32, 1.8
// times as fast at 64 and over twice at 160. The floor sits at 64 all the
// same: there a cell's word is full and the table weighs an eighth of the
// members' own comparison tables it stands in for (at 160 members 15 %),
// where at 8 members it weighs as much as they do; and the Fig. 4 sweep
// (-exp parallel: ten clusters under 64 members, 4 000 objects) ran
// slower with a table on every shared cluster, whose builds so short a
// stream does not pay back. The small clusters of a many-cluster
// community keep Alg. 2's per-member scans and hold no table.
const memberTableMin = 64

// memberTable is the member-major relation table of one shared cluster:
// per attribute d and value pair (x, y), a bitset over the cluster's
// member slots — bit m of cell (x, y) says member m, Members[m] of the
// cluster, has x ≻ y. It is the Bitmap skyline method (Tan, Eng & Ooi,
// VLDB 2001) run across the users of a cluster instead of across the
// values of an attribute: one AND over the attributes of a dominator's
// cells names every member for whom it dominates the arrival
// (dominatedFor), and the verify tier skips them all.
//
// The table is built from the members' closed relations on first use and
// marked stale wherever the value postings are (staleAll: every
// lifecycle call and RestoreState), which is everything that can change a
// member's relation or the member list. A value interned after the build
// lies outside the table and reads as unordered against every other
// value: while the table is current no member relation can order it,
// because ordering it takes a lifecycle call. Domains past
// order.TableMaxN get no table; memberTableOf reads the domain sizes at
// every use, so whether a cluster runs the table never depends on when it
// was last built, and the comparison counts do not either.
type memberTable struct {
	built   bool       // false while stale
	members int        // member slots covered
	words   int        // words per cell: ⌈members/64⌉
	n       []int      // n[d]: the values of attribute d the table covers
	cells   [][]uint64 // cells[d][(x·n[d]+y)·words+w]: members 64·w… with x ≻ y
}

// memberScan is the verify tier's scratch for one arrival o over a member
// table, kept by the engine so that a warm scan allocates nothing: o's
// values, and the members some dominator found so far already rejects o
// for.
type memberScan struct {
	attrs    []int32
	rejected []uint64
}

// memberTableOf returns cluster ui's member table, rebuilt if stale, or
// nil where the verify tier scans with the members' own relations: on an
// engine whose frontier members are objects (the approximate engine's P̂_c
// is what the procedure leaves, so "an alive dominator rejects" does not
// hold there), on a cluster of its own, under engine.memberMin members,
// and while a domain is past order.TableMaxN.
func (f *FilterThenVerify) memberTableOf(ui int) *memberTable {
	cl := &f.Clusters[ui]
	if !f.on || f.Own(ui) || len(cl.Members) < f.memberMin {
		return nil
	}
	doms := cl.Common.Domains()
	for _, dom := range doms {
		if dom.Size() > order.TableMaxN {
			return nil
		}
	}
	if ui >= len(f.tables) {
		f.tables = append(f.tables, make([]memberTable, len(f.Clusters)-len(f.tables))...)
	}
	t := &f.tables[ui]
	if !t.built {
		t.rebuild(f.Users, cl.Members, doms)
	}
	return t
}

// rebuild lays the members' closed relations into the table over the
// values doms hold now, reusing the cells where they are large enough.
func (t *memberTable) rebuild(users []*pref.Profile, members []int, doms []*order.Domain) {
	t.members, t.words = len(members), (len(members)+wordBits-1)/wordBits
	if len(t.n) != len(doms) {
		t.n, t.cells = make([]int, len(doms)), make([][]uint64, len(doms))
	}
	for d, dom := range doms {
		n := dom.Size()
		t.n[d] = n
		if size := n * n * t.words; cap(t.cells[d]) >= size {
			t.cells[d] = t.cells[d][:size]
			clear(t.cells[d])
		} else {
			t.cells[d] = make([]uint64, size)
		}
	}
	for m, c := range members {
		w, bit := m/wordBits, uint64(1)<<(m%wordBits)
		for d, n := range t.n {
			r, cells := users[c].Relation(d), t.cells[d]
			for x := 0; x < min(r.N(), n); x++ {
				r.Succ(x).ForEach(func(y int) bool {
					if y < n {
						cells[(x*n+y)*t.words+w] |= bit
					}
					return y < n
				})
			}
		}
	}
	t.built = true
}

// prepare readies sc for the verify scans of arrival o: its values, and
// no member rejected yet.
//
//paretomon:hotpath
func (t *memberTable) prepare(o object.Object, sc *memberScan) {
	sc.attrs = o.Attrs[:len(t.n)]
	if cap(sc.rejected) < t.words {
		sc.rejected = make([]uint64, t.words)
	}
	sc.rejected = sc.rejected[:t.words]
	clear(sc.rejected)
}

// rejects reports whether a dominator found earlier already rejects the
// arrival for member slot m.
func (sc *memberScan) rejects(m int) bool {
	return sc.rejected[m/wordBits]&(1<<(m%wordBits)) != 0
}

// compare is pref.Probe.Compare of the arrival against b under member
// slot m's relation, read off the table: per attribute on which the two
// differ, the bit of slot m in cell (a, b), then in cell (b, a).
//
//paretomon:hotpath
func (t *memberTable) compare(sc *memberScan, m int, b object.Object) pref.Cmp {
	w, shift := m/wordBits, uint(m%wordBits)
	aBetter, bBetter := false, false
	for d, av := range sc.attrs {
		bv := b.Attrs[d]
		if av == bv {
			continue
		}
		n := t.n[d]
		if uint(av) >= uint(n) || uint(bv) >= uint(n) {
			return pref.Incomparable // a value interned after the build
		}
		cells := t.cells[d]
		switch {
		case cells[(int(av)*n+int(bv))*t.words+w]>>shift&1 != 0:
			if bBetter {
				return pref.Incomparable
			}
			aBetter = true
		case cells[(int(bv)*n+int(av))*t.words+w]>>shift&1 != 0:
			if aBetter {
				return pref.Incomparable
			}
			bBetter = true
		default:
			return pref.Incomparable
		}
	}
	switch {
	case aBetter:
		return pref.Left
	case bBetter:
		return pref.Right
	default:
		return pref.Identical
	}
}

// dominatedFor marks rejected every member slot for whom p dominates the
// arrival: the AND, over the attributes on which the two differ, of cell
// (p_d, o_d). p and the arrival are distinct tuples, so some attribute
// differs; one whose value lies outside the table leaves no member.
//
//paretomon:hotpath
func (t *memberTable) dominatedFor(sc *memberScan, p object.Object) {
	for w := range sc.rejected {
		acc := ^uint64(0)
		for d, ov := range sc.attrs {
			pv := p.Attrs[d]
			if ov == pv {
				continue
			}
			n := t.n[d]
			if uint(ov) >= uint(n) || uint(pv) >= uint(n) {
				return
			}
			if acc &= t.cells[d][(int(pv)*n+int(ov))*t.words+w]; acc == 0 {
				break
			}
		}
		sc.rejected[w] |= acc
	}
}

// verifyMembers is Alg. 2's verify tier over a cluster with a member
// table: each member's P_c scan in member order, except for the members a
// dominator found by an earlier scan already rejects the arrival for.
// Skipping them is exact: o is dominated by an alive object under their
// relation, so their scan could only end in Right, and it could evict
// nothing on the way — a P_c member o dominated would be dominated by
// that object as well, and so could not be in P_c. Deliveries, every P_c
// and its scan order are verifyUser's; only comparisons fall.
func (f *FilterThenVerify) verifyMembers(ui int, t *memberTable, o object.Object, co []int) []int {
	sc := &f.memberScan
	t.prepare(o, sc)
	for m, c := range f.Clusters[ui].Members {
		if !sc.rejects(m) && f.verifyMember(t, m, c, o) {
			co = append(co, c)
		}
	}
	return co
}

// verifyMember is verifyUser for member slot m (user c) of a cluster with
// a member table, comparing through the table. A dominator it meets is
// shared: one more verify comparison evaluates the member set it
// dominates the arrival for, unless m is the last slot.
//
//paretomon:hotpath
func (f *FilterThenVerify) verifyMember(t *memberTable, m, c int, o object.Object) bool {
	fc := f.UserFronts[c]
	sc := &f.memberScan
	isPareto := true
scan:
	for i := 0; i < fc.Len(); {
		op := fc.At(i)
		f.Ctr.AddVerify(1)
		switch t.compare(sc, m, op) {
		case pref.Left:
			fc.Remove(op.ID)
			f.RemoveTarget(op.ID, c)
		case pref.Right:
			isPareto = false
			if m+1 < t.members {
				f.Ctr.AddVerify(1)
				t.dominatedFor(sc, op)
			}
			break scan
		case pref.Identical:
			break scan
		default:
			i++
		}
	}
	if isPareto {
		fc.Add(o)
		f.AddTarget(o.ID, c)
	}
	return isPareto
}
