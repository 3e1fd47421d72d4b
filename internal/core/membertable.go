package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// memberTableMin is the smallest shared cluster whose append-only verify
// tier reads its member table. BenchmarkVerifyTier has the table tie with
// the per-member scans at 8 members and win from 16 (1.8 times as fast at
// 64, over twice at 160); the floor sits at 64, where a cell's word is
// full, because the Fig. 4 sweep (-exp parallel: ten clusters under 64
// members, 4 000 objects) ran slower with a table on every shared cluster,
// whose builds so short a stream does not pay back. The windowed engines
// read the table on every shared cluster.
const memberTableMin = 64

// memberTable is the member-major relation table of one cluster: per
// attribute d and value pair (x, y), a bitset over the member slots — bit
// m of cell (x, y) says the user seated in slot m has x ≻ y. It is the
// Bitmap skyline method (Tan, Eng & Ooi, VLDB 2001) run across a
// cluster's users: one AND over two objects' cells names every member for
// whom the one dominates the other (dominators).
//
// A member keeps its slot while it stays. The cells are built on first
// use, then kept current one member at a time by the lifecycle calls: a
// preference update rewrites one column of one attribute, a join or a
// leave one slot; removals, expiries and restores leave them alone. A
// value interned after the build reads as unordered, the truth until an
// update orders it and rebuilds the cells in place. A domain past
// order.TableMaxN gets no cells, checked at every use (tableOf), so no
// count depends on when the cells were built. On a windowed engine the
// table also holds each object's holders, C_o restricted to the cluster,
// written wherever C_o is (ClusterShard.AddTarget and its kin).
type memberTable struct {
	users []int // users[m]: the user seated in slot m, -1 for a free slot
	words int   // words per member set: ⌈len(users)/64⌉

	built bool
	n     []int      // n[d]: the values of attribute d the cells cover
	cells [][]uint64 // cells[d][(x·n[d]+y)·words+w]: slots 64·w… with x ≻ y

	hold []uint64 // hold[(key-base)·words+w]: slots 64·w… whose P_c holds key
	base int
}

// memberScan is the append-only verify tier's scratch for one arrival o:
// the members some dominator found so far already rejects o for, and the
// members whose scan has not run yet.
type memberScan struct {
	o         object.Object
	rejected  []uint64
	unvisited []uint64
}

// memberTier is the windowed member tier's scratch: one member set, and a
// departure's promotions, each to the members in cand[at:at+words].
type memberTier struct {
	set, cand []uint64
	promoted  []promotion
}

type promotion struct {
	o  object.Object
	at int
}

func wordsFor(slots int) int { return (slots + wordBits - 1) / wordBits }

// tableOf returns cluster li's member table and whether its cells may be
// read, building them first if need be: not while a domain is past
// order.TableMaxN.
func (s *ClusterShard) tableOf(li int) (*memberTable, bool) {
	t := &s.tables[li]
	doms := s.Clusters[li].Common.Domains()
	for _, dom := range doms {
		if dom.Size() > order.TableMaxN {
			return t, false
		}
	}
	if !t.built {
		t.rebuild(s.Users, t.users, doms)
	}
	return t, true
}

// memberTableOf returns cluster ui's member table, cells current, or nil
// where the verify tier scans with the members' own relations: on an
// engine whose frontier members are objects (P̂_c is what the approximate
// procedure leaves, so "an alive dominator rejects" fails there), on a
// cluster of its own, under memberMin members, and past TableMaxN.
func (f *FilterThenVerify) memberTableOf(ui int) *memberTable {
	if !f.on || f.Own(ui) || len(f.Clusters[ui].Members) < f.memberMin {
		return nil
	}
	if t, on := f.tableOf(ui); on {
		return t
	}
	return nil
}

// rebuild lays the closed relations of the users seated in slots (-1: a
// free slot) into the cells over the values doms hold now, reusing the
// cells where they are large enough.
func (t *memberTable) rebuild(users []*pref.Profile, slots []int, doms []*order.Domain) {
	t.words = wordsFor(len(slots))
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
	for m, c := range slots {
		for d := range t.n {
			if c >= 0 {
				t.writeColumn(users[c].Relation(d), d, m, false)
			}
		}
	}
	t.built = true
}

// writeColumn writes slot m's bits of attribute d from r, clearing them
// first unless they are clear already (a rebuild). It reports false, the
// column part-written, if r orders a value the cells do not cover.
func (t *memberTable) writeColumn(r *order.Relation, d, m int, dirty bool) bool {
	n, cells := t.n[d], t.cells[d]
	w, bit := m/wordBits, uint64(1)<<(m%wordBits)
	for i := w; dirty && i < len(cells); i += t.words {
		cells[i] &^= bit
	}
	covered := true
	for x := 0; x < r.N() && covered; x++ {
		r.Succ(x).ForEach(func(y int) bool {
			if covered = x < n && y < n; covered {
				cells[(x*n+y)*t.words+w] |= bit
			}
			return covered
		})
	}
	return covered
}

// refresh rewrites slot m's column of attribute d (every attribute for
// d < 0) if the cells are built: in place, or by a rebuild when the
// relation now orders a value interned after the build, or by dropping
// the cells when a domain is past order.TableMaxN.
func (t *memberTable) refresh(users []*pref.Profile, m, d int) {
	if !t.built {
		return
	}
	p := users[t.users[m]]
	for e := range t.n {
		if (d < 0 || e == d) && !t.writeColumn(p.Relation(e), e, m, true) {
			t.rebuildAt(users, p.Domains())
			return
		}
	}
}

// rebuildAt rebuilds built cells over doms, or drops them when a domain is
// past order.TableMaxN.
func (t *memberTable) rebuildAt(users []*pref.Profile, doms []*order.Domain) {
	for _, dom := range doms {
		if dom.Size() > order.TableMaxN {
			t.built, t.n, t.cells = false, nil, nil
			return
		}
	}
	if t.built {
		t.rebuild(users, t.users, doms)
	}
}

// seat gives user c the lowest free slot, or a new one, writes its
// columns and returns the slot. A new word of slots widens every member
// set, and the cells are rebuilt.
func (t *memberTable) seat(users []*pref.Profile, c int) int {
	m := slices.Index(t.users, -1)
	if m < 0 {
		m = len(t.users)
		t.users = append(t.users, c)
		if w := wordsFor(len(t.users)); w != t.words {
			hold := make([]uint64, len(t.hold)/max(t.words, 1)*w)
			for k := 0; k*w < len(hold); k++ {
				copy(hold[k*w:], t.hold[k*t.words:(k+1)*t.words])
			}
			t.hold, t.words = hold, w
			t.rebuildAt(users, users[c].Domains())
			return m
		}
	}
	t.users[m] = c
	t.refresh(users, m, -1)
	return m
}

// holders returns key's holder words, nil when the table keeps none for
// it; they are valid until the next C_o write.
//
//paretomon:hotpath
func (t *memberTable) holders(key int) []uint64 {
	i := (key - t.base) * t.words
	if i < 0 || i >= len(t.hold) {
		return nil
	}
	return t.hold[i : i+t.words]
}

// addHolder sets slot m in key's holder words, growing them to reach key.
func (t *memberTable) addHolder(key, m int) {
	if len(t.hold) == 0 {
		t.base = key
	}
	if key < t.base {
		t.hold = slices.Insert(t.hold, 0, make([]uint64, (t.base-key)*t.words)...)
		t.base = key
	}
	i := (key - t.base) * t.words
	for len(t.hold) < i+t.words {
		t.hold = append(t.hold, 0)
	}
	t.hold[i+m/wordBits] |= 1 << (m % wordBits)
}

// expireHolders forgets key and every key below it, as
// TargetTracker.Expire does: the dead prefix stays until it is half the
// words, then the live part moves down in place.
//
//paretomon:hotpath
func (t *memberTable) expireHolders(key int) {
	dead := key + 1 - t.base
	switch {
	case dead <= 0 || len(t.hold) == 0:
	case dead*t.words >= len(t.hold):
		t.hold = t.hold[:0]
	default:
		clear(t.holders(key))
		if 2*dead*t.words >= len(t.hold) {
			t.hold = t.hold[:copy(t.hold, t.hold[dead*t.words:])]
			t.base += dead
		}
	}
}

// KeepHolders makes the shard keep the holder words the windowed member
// tier reads; it must be called before any frontier is written.
func (s *ClusterShard) KeepHolders() { s.holding = true }

// AddTarget records that key is Pareto-optimal for user c: in C_o, and in
// the holder words of c's cluster where the shard keeps them.
func (s *ClusterShard) AddTarget(key, c int) {
	s.TargetTracker.AddTarget(key, c)
	if s.holding {
		s.hold(key, c, true)
	}
}

// RemoveTarget records that key left user c's frontier.
func (s *ClusterShard) RemoveTarget(key, c int) {
	s.TargetTracker.RemoveTarget(key, c)
	if s.holding {
		s.hold(key, c, false)
	}
}

// hold sets or clears user c's bit in key's holder words, unless c's
// cluster is a cluster of its own.
func (s *ClusterShard) hold(key, c int, held bool) {
	li, m := int(s.home[c]), int(s.slot[c])
	if li < 0 || s.Own(li) {
		return
	}
	t := &s.tables[li]
	if held {
		t.addHolder(key, m)
	} else if h := t.holders(key); h != nil {
		h[m/wordBits] &^= 1 << (m % wordBits)
	}
}

// DropTargets forgets key's holders entirely.
func (s *ClusterShard) DropTargets(key int) {
	s.TargetTracker.DropTargets(key)
	for li := range s.tables {
		clear(s.tables[li].holders(key))
	}
}

// Expire forgets key and every key below it, in C_o and the holder words.
//
//paretomon:hotpath
func (s *ClusterShard) Expire(key int) {
	s.TargetTracker.Expire(key)
	for li := range s.tables {
		if len(s.tables[li].hold) > 0 {
			s.tables[li].expireHolders(key)
		}
	}
}

// prepare readies sc for the verify scans of arrival o: no member
// rejected yet, and none visited.
//
//paretomon:hotpath
func (t *memberTable) prepare(o object.Object, sc *memberScan) {
	sc.o = o
	sc.rejected = clearedWords(sc.rejected, t.words)
	sc.unvisited = clearedWords(sc.unvisited, t.words)
}

// rejects reports whether a dominator found earlier already rejects the
// arrival for member slot m.
func (sc *memberScan) rejects(m int) bool {
	return sc.rejected[m/wordBits]&(1<<(m%wordBits)) != 0
}

// awaited reports whether a member whose scan has not run yet is still
// unrejected: only then can sharing a dominator save a scan.
func (sc *memberScan) awaited() bool {
	for w, u := range sc.unvisited {
		if u&^sc.rejected[w] != 0 {
			return true
		}
	}
	return false
}

// compare is pref.Probe.Compare of the arrival against b under member
// slot m's relation, read off the table.
//
//paretomon:hotpath
func (t *memberTable) compare(sc *memberScan, m int, b object.Object) pref.Cmp {
	w, shift := m/wordBits, uint(m%wordBits)
	aBetter, bBetter := false, false
	for d, av := range sc.o.Attrs[:len(t.n)] {
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

// dominatedFor marks rejected every member slot for whom p, a tuple other
// than the arrival's, dominates the arrival.
//
//paretomon:hotpath
func (t *memberTable) dominatedFor(sc *memberScan, p object.Object) {
	for w := range sc.rejected {
		ab, _ := t.dominators(p, sc.o, w, ^uint64(0))
		sc.rejected[w] |= ab
	}
}

// verifyMembers is Alg. 2's verify tier over a cluster with a member
// table: each member's P_c scan in member order, except for the members a
// dominator found by an earlier scan already rejects the arrival for —
// their scan could only end in Right and evict nothing (a P_c member o
// dominated, that dominator would dominate too). Deliveries, every P_c and
// its scan order are verifyUser's; only comparisons fall.
func (f *FilterThenVerify) verifyMembers(ui int, t *memberTable, o object.Object, co []int) []int {
	sc := &f.memberScan
	t.prepare(o, sc)
	members := f.Clusters[ui].Members
	for _, c := range members {
		m := int(f.slot[c])
		sc.unvisited[m/wordBits] |= 1 << (m % wordBits)
	}
	for _, c := range members {
		m := int(f.slot[c])
		sc.unvisited[m/wordBits] &^= 1 << (m % wordBits)
		if !sc.rejects(m) && f.verifyMember(t, m, c, o) {
			co = append(co, c)
		}
	}
	return co
}

// verifyMember is verifyUser for member slot m (user c) of a cluster with
// a member table, comparing through the table. A dominator it meets is
// shared while a member whose scan is still to run is unrejected: one
// more verify comparison evaluates the member set it dominates the
// arrival for.
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
			if sc.awaited() {
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

// dominators returns the slots in word w of mask for whom a ≻ b, and
// whether the two are twins (then the set is meaningless): the AND of
// cells (a_d, b_d) over the attributes on which they differ. A value the
// cells do not cover leaves nobody.
//
//paretomon:hotpath
func (t *memberTable) dominators(a, b object.Object, w int, mask uint64) (ab uint64, twin bool) {
	ab, twin = mask, true
	for d, n := range t.n {
		x, y := int(a.Attrs[d]), int(b.Attrs[d])
		if x == y {
			continue
		}
		if uint(x) >= uint(n) || uint(y) >= uint(n) {
			return 0, false
		}
		if twin, ab = false, ab&t.cells[d][(x*n+y)*t.words+w]; ab == 0 {
			return 0, false
		}
	}
	return ab, twin
}

// dominators is memberTable.dominators where on, and past
// order.TableMaxN each member's own relation.
//
//paretomon:hotpath
func (s *ClusterShard) dominators(t *memberTable, on bool, a, b object.Object, w int, mask uint64) (ab uint64, twin bool) {
	if on {
		return t.dominators(a, b, w, mask)
	}
	for ; mask != 0; mask &= mask - 1 {
		if s.Users[t.users[w*wordBits+bits.TrailingZeros64(mask)]].Dominates(a, b) {
			ab |= mask & -mask
		}
	}
	return ab, slices.Equal(a.Attrs, b.Attrs)
}

// dominance tests whether an object dominates a fixed one: through a
// Probe under a profile, or, for a member on a shard that keeps holders,
// through its slot of the member table, leaving its byte tables unbuilt.
type dominance struct {
	p   *pref.Profile
	px  pref.Probe
	s   *ClusterShard
	t   *memberTable // nil: through px
	on  bool
	w   int
	bit uint64
	x   object.Object
}

// memberDominance is the dominance test of member c of cluster li.
func (s *ClusterShard) memberDominance(li, c int) dominance {
	if !s.holding || s.Own(li) {
		return dominance{p: s.Users[c]}
	}
	t, on := s.tableOf(li)
	m := int(s.slot[c])
	return dominance{s: s, t: t, on: on, w: m / wordBits, bit: 1 << (m % wordBits)}
}

// fix makes x the object the tests are about.
func (dm *dominance) fix(x object.Object) {
	if dm.x = x; dm.t == nil {
		dm.p.Prepare(x, &dm.px)
	}
}

// by reports whether op dominates the fixed object.
func (dm *dominance) by(op object.Object) bool {
	if dm.t == nil {
		return dm.px.DominatedBy(op)
	}
	ab, twin := dm.s.dominators(dm.t, dm.on, op, dm.x, dm.w, dm.bit)
	return !twin && ab != 0
}

// clearedWords returns buf resized to n words, all zero. (An append of a
// make allocates the make under the race detector.)
func clearedWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// AdmitToMembers is Alg. 5's member tier for o_in, which passed cluster
// li's filter and joined P_U, for all members at once; it appends the
// members whose frontier o_in joins to co. Each P_U entry p is probed
// once, for the members holding it that no entry met before rejects o_in
// for: those for whom p ≻ o_in reject it, those for whom o_in ≻ p evict p.
// That is each member's own scan of P_c ⊆ P_U in P_U's order, and the
// order changes no verdict (see the window package comment). A twin of
// o_in is no probe; the tier stops once every member rejects o_in.
//
//paretomon:hotpath
func (s *ClusterShard) AdmitToMembers(li int, o object.Object, co []int) []int {
	t, on := s.tableOf(li)
	s.tier.set = clearedWords(s.tier.set, t.words)
	rej := s.tier.set
	members := s.Clusters[li].Members
	open := len(members)
	fu := s.ClusterFronts[li]
	for i := 0; i < fu.Len() && open > 0; i++ {
		p := fu.At(i)
		if p.ID == o.ID {
			continue
		}
		probed := false
		for w, hw := range t.holders(p.ID) {
			if hw &^= rej[w]; hw == 0 {
				continue
			}
			evict, twin := s.dominators(t, on, o, p, w, hw)
			if twin {
				break
			}
			reject, _ := s.dominators(t, on, p, o, w, hw)
			if !probed {
				s.Ctr.AddVerify(1)
				probed = true
			}
			rej[w] |= reject
			open -= bits.OnesCount64(reject)
			for ; evict != 0; evict &= evict - 1 {
				c := t.users[w*wordBits+bits.TrailingZeros64(evict)]
				s.UserFronts[c].Remove(p.ID)
				s.RemoveTarget(p.ID, c)
			}
		}
	}
	for _, c := range members {
		if m := s.slot[c]; rej[m/wordBits]>>(m%wordBits)&1 == 0 {
			s.UserFronts[c].Add(o)
			s.AddTarget(o.ID, c)
			co = append(co, c)
		}
	}
	return co
}

// AdmitTwin is the member tier for o_in, which passed cluster li's
// filter on twin, an alive P_U entry with o_in's tuple, on an engine whose
// member frontiers the attribute values determine (≻_U ⊆ ≻_c, so each
// P_c is the frontier of the alive objects under ≻_c). Dominance reads
// attribute values only: o_in joins exactly the frontiers holding twin,
// and evicts nothing — what it dominates, twin dominates and keeps out.
// No comparison is made. It appends the members o_in joins to co, in
// member order, as AdmitToMembers does.
//
//paretomon:hotpath
func (s *ClusterShard) AdmitTwin(li int, o object.Object, twin int, co []int) []int {
	t := &s.tables[li]
	s.tier.set = clearedWords(s.tier.set, t.words)
	held := s.tier.set // a copy: o's holder words may move the twin's
	copy(held, t.holders(twin))
	for _, c := range s.Clusters[li].Members {
		if m := s.slot[c]; held[m/wordBits]>>(m%wordBits)&1 != 0 {
			s.UserFronts[c].Add(o)
			s.AddTarget(o.ID, c)
			co = append(co, c)
		}
	}
	return co
}

// MendMembers is the member tier of a departure from cluster li, by
// expiry or removal, for all members at once: out, already out of P_U,
// leaves the frontiers holding it, and those members promote the P_U
// entries whose only dominator was out (mendParetoFrontierSW, Lemma 4.6
// the test); a member that did not hold out promotes nothing. The
// candidates for entry x are the holders of out that lack x and for whom
// out ≻ x; every other entry clears the members it dominates x for, and
// the members left promote x, in arrival order. An entry every holder of
// out holds, and a twin, is no probe. When twin says a twin of out is in
// P_U, that is all: the twin dominates whatever out did, for every
// member, and nothing is promoted — under the approximate relations too,
// where the probes would reach the same verdict.
//
//paretomon:hotpath
func (s *ClusterShard) MendMembers(li int, out object.Object, twin bool) {
	t := &s.tables[li]
	sc := &s.tier
	sc.set = clearedWords(sc.set, t.words)
	left, held := sc.set, 0
	copy(left, t.holders(out.ID))
	for w, lw := range left {
		for ; lw != 0; lw &= lw - 1 {
			held++
			c := t.users[w*wordBits+bits.TrailingZeros64(lw)]
			s.UserFronts[c].Remove(out.ID)
			s.RemoveTarget(out.ID, c)
		}
	}
	if twin || held == 0 {
		return
	}
	t, on := s.tableOf(li)
	sc.cand, sc.promoted = sc.cand[:0], sc.promoted[:0]
	fu := s.ClusterFronts[li]
	for i := 0; i < fu.Len() && held > 0; i++ {
		at := len(sc.cand)
		sc.cand = append(sc.cand, left...)
		cand := sc.cand[at:]
		for w, hw := range t.holders(fu.At(i).ID) {
			cand[w] &^= hw
		}
		if s.promotes(t, on, fu, i, out, cand) {
			sc.promoted = append(sc.promoted, promotion{o: fu.At(i), at: at})
		} else {
			sc.cand = sc.cand[:at]
		}
	}
	slices.SortFunc(sc.promoted, func(a, b promotion) int { return a.o.ID - b.o.ID })
	for _, p := range sc.promoted {
		for w, cw := range sc.cand[p.at : p.at+t.words] {
			for ; cw != 0; cw &= cw - 1 {
				c := t.users[w*wordBits+bits.TrailingZeros64(cw)]
				s.UserFronts[c].Add(p.o)
				s.AddTarget(p.o.ID, c)
			}
		}
	}
}

// promotes narrows cand, the members that may promote P_U entry i, to
// those for whom out dominated it and no other P_U entry does, and
// reports whether any is left.
//
//paretomon:hotpath
func (s *ClusterShard) promotes(t *memberTable, on bool, fu *Frontier, i int, out object.Object, cand []uint64) bool {
	x := fu.At(i)
	if !s.narrow(t, on, out, x, cand, true) {
		return false
	}
	for j := 0; j < fu.Len(); j++ {
		if j != i && !s.narrow(t, on, fu.At(j), x, cand, false) {
			return false
		}
	}
	return true
}

// narrow probes a against b for the members in cand and keeps those for
// whom a ≻ b (keep) or those for whom it does not hold (!keep), reporting
// whether any is left. A twin is no probe: it dominates b for nobody.
//
//paretomon:hotpath
func (s *ClusterShard) narrow(t *memberTable, on bool, a, b object.Object, cand []uint64, keep bool) bool {
	probed, left := false, false
	for w, cw := range cand {
		if cw == 0 {
			continue
		}
		ab, twin := s.dominators(t, on, a, b, w, cw)
		if twin {
			return !keep
		}
		if !probed {
			s.Ctr.AddVerify(1)
			probed = true
		}
		if keep {
			cand[w] = cw & ab
		} else {
			cand[w] = cw &^ ab
		}
		left = left || cand[w] != 0
	}
	return left
}

// CheckMemberTable returns the first disagreement of cluster li's table
// with what it stands for: the built cells with the members' relations
// (none ordering a value past the cells), the holder words with C_o.
func (s *ClusterShard) CheckMemberTable(li int) error {
	t, holding := &s.tables[li], s.holding && !s.Own(li)
	for _, c := range s.Clusters[li].Members {
		m := s.slot[c]
		if s.home[c] != int32(li) || t.users[m] != c {
			return fmt.Errorf("core: member %d of cluster %d is not in its slot", c, li)
		}
		for _, o := range s.UserFronts[c].Objects() {
			if h := t.holders(o.ID); holding && (h == nil || h[m/wordBits]>>(m%wordBits)&1 == 0) {
				return fmt.Errorf("core: user %d holds %d, its holder word does not say so", c, o.ID)
			}
		}
	}
	for m, c := range t.users {
		for d, n := range t.n {
			if !t.built || c < 0 {
				break
			}
			r := s.Users[c].Relation(d)
			for x := 0; x < max(n, r.N()); x++ {
				for y := 0; y < max(n, r.N()); y++ {
					if x >= n || y >= n {
						if r.Has(x, y) {
							return fmt.Errorf("core: user %d orders (%d, %d) on %d, past the cells' %d values", c, x, y, d, n)
						}
					} else if t.cells[d][(x*n+y)*t.words+m/wordBits]>>(m%wordBits)&1 != 0 != r.Has(x, y) {
						return fmt.Errorf("core: cell (%d, %d) on %d disagrees with user %d", x, y, d, c)
					}
				}
			}
		}
		for k := 0; holding && k*t.words < len(t.hold); k++ {
			if got := t.hold[k*t.words+m/wordBits]>>(m%wordBits)&1 != 0; got != (c >= 0 && s.Holds(t.base+k, c)) {
				return fmt.Errorf("core: the holder word of %d says %v for slot %d (user %d)", t.base+k, got, m, c)
			}
		}
	}
	return nil
}
