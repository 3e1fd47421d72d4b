package core

import (
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/oracle"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/stats"
)

// checkPostings holds every current value-postings index of every
// FilterThenVerify shard of s to a recomputation from its frontier's
// scan list: each posting holds exactly the positions whose member has
// its value, the counts match, values past order.TableMaxN are counted in
// over, and no bit lies past the frontier's end.
func checkPostings(t *testing.T, s *Sharded) {
	t.Helper()
	for _, f := range ftvShards(s) {
		for ui := range f.postings {
			ix, fu := &f.postings[ui], f.ClusterFronts[ui]
			if !ix.current(fu) {
				continue
			}
			for d := range ix.post {
				want := make([][]int, len(ix.post[d]))
				over := int32(0)
				for i, o := range fu.Objects() {
					v := int(o.Attrs[d])
					switch {
					case v >= order.TableMaxN:
						over++
					case v >= len(want):
						t.Fatalf("cluster %d attribute %d: member at %d has value %d, postings stop at %d", ui, d, i, v, len(want))
					default:
						want[v] = append(want[v], i)
					}
				}
				if ix.over[d] != over {
					t.Fatalf("cluster %d attribute %d: over = %d, want %d", ui, d, ix.over[d], over)
				}
				for v, set := range ix.post[d] {
					got := set.Slice()
					if !slices.Equal(got, want[v]) {
						t.Fatalf("cluster %d attribute %d value %d: postings %v, scan list has %v", ui, d, v, got, want[v])
					}
					if int(ix.count[d][v]) != len(want[v]) {
						t.Fatalf("cluster %d attribute %d value %d: count %d, want %d", ui, d, v, ix.count[d][v], len(want[v]))
					}
				}
			}
		}
	}
}

// ftvShards returns the FilterThenVerify shards of a harness.
func ftvShards(s *Sharded) []*FilterThenVerify {
	var out []*FilterThenVerify
	for _, sh := range s.shards {
		out = append(out, sh.(*FilterThenVerify))
	}
	return out
}

// clusterFronts returns every live cluster's P_U as object ids in scan
// order, keyed by global cluster index.
func clusterFronts(s *Sharded) map[int][]int {
	out := map[int][]int{}
	for _, f := range ftvShards(s) {
		for li, cl := range f.Clusters {
			if len(cl.Members) > 0 {
				out[f.GlobalIndex(li)] = f.ClusterFrontier(li)
			}
		}
	}
	return out
}

// indexWorld is a community whose cluster relations are sparse enough
// that a stream of distinct tuples grows P_U well past indexMinLen, yet
// not empty, so that arrivals are dominated and evict: dims attributes
// over domSize values, users who all assert one shared base of random
// preference tuples and a few of their own, dealt into clusters of three,
// and the alive objects in arrival order (the engines' shared
// alive-object source).
type indexWorld struct {
	r      *rand.Rand
	doms   []*order.Domain
	asked  []*pref.Profile // the profiles as built; each engine gets clones
	groups [][]int
	alive  []object.Object
	seen   map[[4]int32]bool
	nextID int
}

func newIndexWorld(seed int64, users int) *indexWorld {
	const dims, domSize, baseEdges, edges = 4, 10, 9, 3
	w := &indexWorld{r: rand.New(rand.NewSource(seed)), seen: map[[4]int32]bool{}}
	for d := 0; d < dims; d++ {
		dom := order.NewDomain(fmt.Sprint("attr", d))
		for v := 0; v < domSize; v++ {
			dom.Intern(fmt.Sprint("v", v))
		}
		w.doms = append(w.doms, dom)
	}
	base := w.profile(baseEdges)
	for u := 0; u < users; u++ {
		p := w.profile(edges)
		for d := range w.doms {
			for _, tu := range base.Relation(d).Asserted() {
				p.Relation(d).Add(tu.Better, tu.Worse) // rejections fine
			}
		}
		w.asked = append(w.asked, p)
		if u%3 == 0 {
			w.groups = append(w.groups, nil)
		}
		w.groups[len(w.groups)-1] = append(w.groups[len(w.groups)-1], u)
	}
	return w
}

// profile draws a random profile over the world's current domains.
func (w *indexWorld) profile(edges int) *pref.Profile {
	p := pref.NewProfile(w.doms)
	for d, dom := range w.doms {
		for e := 0; e < edges; e++ {
			p.Relation(d).Add(w.r.Intn(dom.Size()), w.r.Intn(dom.Size())) // rejections fine
		}
	}
	return p
}

// next draws an object whose tuple the stream has not carried yet, over
// the domains' current values (attribute d drawn from its first span[d]
// values when span is given).
func (w *indexWorld) next(span []int) object.Object {
	for {
		var key [4]int32
		for d, dom := range w.doms {
			n := dom.Size()
			if span != nil {
				n = span[d]
			}
			key[d] = int32(w.r.Intn(n))
		}
		if w.seen[key] {
			continue
		}
		w.seen[key] = true
		o := object.Object{ID: w.nextID, Attrs: append([]int32(nil), key[:]...)}
		w.nextID++
		return o
	}
}

func (w *indexWorld) source() iter.Seq[object.Object] {
	return func(yield func(object.Object) bool) {
		for _, o := range w.alive {
			if !yield(o) {
				return
			}
		}
	}
}

// engines builds the engine under test — class-keyed, so long filter
// scans read the value postings — and its reference, the per-object
// engine, which runs Alg. 2's linear scan. On a stream that never
// repeats a tuple the two run the same algorithm over the same scan
// lists; only the filter comparisons the postings rule out differ. Each
// gets its own clone of every profile.
func (w *indexWorld) engines(t testing.TB, workers int) (eng, ref *Sharded, users [2][]*pref.Profile) {
	for k, build := range []func([]*pref.Profile, []Cluster, []bool, iter.Seq[object.Object], int, *stats.Counters) (*Sharded, error){
		NewSharded, NewShardedPerObject,
	} {
		for _, p := range w.asked {
			users[k] = append(users[k], p.Clone())
		}
		s, err := build(users[k], w.clusters(users[k]), nil, w.source(), workers, &stats.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			eng = s
		} else {
			ref = s
		}
	}
	return eng, ref, users
}

// clusters deals users into the world's groups under exact common
// relations.
func (w *indexWorld) clusters(users []*pref.Profile) []Cluster {
	var out []Cluster
	for _, g := range w.groups {
		var ps []*pref.Profile
		for _, u := range g {
			ps = append(ps, users[u])
		}
		out = append(out, Cluster{Members: append([]int(nil), g...), Common: pref.Common(ps)})
	}
	return out
}

// indexRun drives the engine under test and its linear reference through
// one history and holds them to each other after every step.
type indexRun struct {
	t        *testing.T
	w        *indexWorld
	eng, ref *Sharded
	users    [3][]*pref.Profile // eng's, ref's and ctl's
	active   []bool             // user slots alive in every engine
	members  [][]int

	// ctl, when set (withControl), is a third engine: eng with its member
	// tables off. eng's filter counts must then equal ctl's and its
	// verify counts may only fall; ctl holds ref's verify counts.
	ctl *Sharded
	// counts is eng's totals after every step.
	counts []stats.Counters
}

func newIndexRun(t *testing.T, w *indexWorld, workers int) *indexRun {
	h := &indexRun{t: t, w: w}
	var users [2][]*pref.Profile
	h.eng, h.ref, users = w.engines(t, workers)
	h.users[0], h.users[1] = users[0], users[1]
	for range w.asked {
		h.active = append(h.active, true)
	}
	for _, g := range w.groups {
		h.members = append(h.members, append([]int(nil), g...))
	}
	return h
}

// arrive ingests a batch into both engines (ProcessBatch: with several
// shards, forked onto goroutines) and compares deliveries, then state.
func (h *indexRun) arrive(objs []object.Object) {
	h.t.Helper()
	h.w.alive = append(h.w.alive, objs...)
	var got [][]int
	for _, co := range h.eng.ProcessBatch(objs) {
		got = append(got, slices.Clone(co))
	}
	if h.ctl != nil {
		for j, co := range h.ctl.ProcessBatch(objs) {
			if !slices.Equal(got[j], co) {
				h.t.Fatalf("object %d delivered to %v, without member tables to %v", objs[j].ID, got[j], co)
			}
		}
	}
	want := h.ref.ProcessBatch(objs)
	for j := range objs {
		if !slices.Equal(got[j], want[j]) {
			h.t.Fatalf("object %d delivered to %v, linear scan delivers to %v", objs[j].ID, got[j], want[j])
		}
	}
	h.agree("after arrivals")
}

// agree compares every P_U (members and scan order), every P_c, every
// C_o and the verify counts, holds the filter counts to at most the
// reference's, and checks the postings against their scan lists. With a
// control engine, the verify counts are compared through it.
func (h *indexRun) agree(when string) {
	h.t.Helper()
	gotU, wantU := clusterFronts(h.eng), clusterFronts(h.ref)
	if len(gotU) != len(wantU) {
		h.t.Fatalf("%s: %d live clusters, linear has %d", when, len(gotU), len(wantU))
	}
	for ci, want := range wantU {
		if got := gotU[ci]; !slices.Equal(got, want) {
			h.t.Fatalf("%s: P_U of cluster %d is %v, linear scan has %v", when, ci, got, want)
		}
	}
	for c, ok := range h.active {
		if !ok {
			continue
		}
		if got, want := h.eng.UserFrontier(c), h.ref.UserFrontier(c); !slices.Equal(got, want) {
			h.t.Fatalf("%s: P_c of user %d is %v, linear scan has %v", when, c, got, want)
		}
	}
	for _, o := range h.w.alive {
		if got, want := h.eng.Targets(o.ID), h.ref.Targets(o.ID); !slices.Equal(got, want) {
			h.t.Fatalf("%s: C_o of object %d is %v, linear scan has %v", when, o.ID, got, want)
		}
	}
	got, want := h.eng.Totals(), h.ref.Totals()
	h.counts = append(h.counts, got)
	if h.ctl != nil {
		ctl := h.ctl.Totals()
		if got.FilterComparisons != ctl.FilterComparisons || got.VerifyComparisons > ctl.VerifyComparisons {
			h.t.Fatalf("%s: filter/verify comparisons %d/%d, without member tables %d/%d",
				when, got.FilterComparisons, got.VerifyComparisons, ctl.FilterComparisons, ctl.VerifyComparisons)
		}
		got = ctl // the control, not eng, makes ref's verify comparisons
	}
	if got.VerifyComparisons != want.VerifyComparisons || got.FilterComparisons > want.FilterComparisons {
		h.t.Fatalf("%s: filter/verify comparisons %d/%d, linear scan %d/%d",
			when, got.FilterComparisons, got.VerifyComparisons, want.FilterComparisons, want.VerifyComparisons)
	}
	checkPostings(h.t, h.eng)
}

// againstOracle holds every active user's P_c and every live cluster's
// P_U to Def. 3.2 over the alive objects, with Def. 4.1's common relation.
func (h *indexRun) againstOracle() {
	h.t.Helper()
	us := h.users[0]
	for c, ok := range h.active {
		if ok {
			if got, want := slices.Sorted(slices.Values(h.eng.UserFrontier(c))), fixtures.Frontier(fixtures.Asserted(us[c]), h.w.alive); !slices.Equal(got, want) {
				h.t.Fatalf("P_c of user %d is %v, the oracle's is %v", c, got, want)
			}
		}
	}
	fronts := clusterFronts(h.eng)
	for ci, ms := range h.members {
		if len(ms) == 0 {
			continue
		}
		var ps []oracle.Prefs[int32]
		for _, c := range ms {
			ps = append(ps, fixtures.Asserted(us[c]))
		}
		got := slices.Sorted(slices.Values(fronts[ci]))
		if want := fixtures.Frontier(oracle.Common(ps...), h.w.alive); !slices.Equal(got, want) {
			h.t.Fatalf("P_U of cluster %d is %v, the oracle's is %v", ci, got, want)
		}
	}
}

// applyBoth runs one lifecycle call on both engines, which must agree on
// its error.
func (h *indexRun) applyBoth(what string, call func(s *Sharded) error) {
	h.t.Helper()
	gotErr, wantErr := call(h.eng), call(h.ref)
	if (gotErr == nil) != (wantErr == nil) {
		h.t.Fatalf("%s: error %v, linear scan %v", what, gotErr, wantErr)
	}
	if h.ctl != nil {
		if ctlErr := call(h.ctl); (ctlErr == nil) != (wantErr == nil) {
			h.t.Fatalf("%s: error %v without member tables, linear scan %v", what, ctlErr, wantErr)
		}
	}
	h.agree(what)
}

// activeUser picks an active user slot at random.
func (h *indexRun) activeUser() int {
	for {
		if c := h.w.r.Intn(len(h.active)); h.active[c] {
			return c
		}
	}
}

// lifecycle runs lifecycle step k of a fixed rotation between arrivals:
// a grown relation, a retracted tuple, an object removed from a filter
// frontier, a user joining and one leaving.
func (h *indexRun) lifecycle(k int) {
	h.t.Helper()
	w := h.w
	switch k % 5 {
	case 0:
		c, d := h.activeUser(), w.r.Intn(len(w.doms))
		x, y := w.r.Intn(w.doms[d].Size()), w.r.Intn(w.doms[d].Size())
		h.applyBoth("ApplyPreference", func(s *Sharded) error { return s.ApplyPreference(c, d, x, y) })
	case 1:
		c, d := h.activeUser(), w.r.Intn(len(w.doms))
		asserted := h.users[0][c].Relation(d).Asserted()
		if len(asserted) == 0 {
			return
		}
		tu := asserted[w.r.Intn(len(asserted))]
		h.applyBoth("RetractPreference", func(s *Sharded) error { return s.RetractPreference(c, d, tu.Better, tu.Worse) })
	case 2:
		fronts := clusterFronts(h.eng)
		ids := fronts[slices.Min(slices.Collect(maps.Keys(fronts)))]
		if len(ids) == 0 {
			return
		}
		id := ids[w.r.Intn(len(ids))]
		i := slices.IndexFunc(w.alive, func(o object.Object) bool { return o.ID == id })
		o := w.alive[i]
		w.alive = slices.Delete(w.alive, i, i+1)
		h.applyBoth("RemoveObject", func(s *Sharded) error { s.RemoveObject(o); return nil })
	case 3:
		c, ci := len(h.active), w.r.Intn(len(h.members))
		p := w.profile(3)
		for k := range h.users {
			h.users[k] = append(h.users[k], p.Clone())
		}
		h.active = append(h.active, true)
		h.members[ci] = append(h.members[ci], c)
		h.applyBoth("AddUser", func(s *Sharded) error {
			k := 0
			switch s {
			case h.ref:
				k = 1
			case h.ctl:
				k = 2
			}
			s.RegisterUser(c, h.users[k][c])
			s.ActivateUser(c, ci)
			return nil
		})
	case 4:
		c := h.activeUser()
		ci := slices.IndexFunc(h.members, func(ms []int) bool { return slices.Contains(ms, c) })
		if len(h.members[ci]) == 1 {
			return // keep every cluster alive
		}
		h.active[c] = false
		h.members[ci] = slices.DeleteFunc(h.members[ci], func(m int) bool { return m == c })
		h.applyBoth("RemoveUser", func(s *Sharded) error { s.RemoveUser(c); return nil })
	}
}

// TestValueIndexChangesOnlyWhichComparisons holds the class-keyed engine,
// whose filter scans read the value postings once P_U reaches
// indexMinLen, to the per-object engine's linear scans over a history
// that grows P_U well past it, and both to the oracle. Deliveries, every
// P_U in scan order, every P_c and the verify counts must be identical,
// and the filter count may only fall. Between batches run every lifecycle
// call; midway values are interned after the tables were published —
// first one, then enough that a domain passes order.TableMaxN — and
// preferences are asserted over them.
func TestValueIndexChangesOnlyWhichComparisons(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			w := newIndexWorld(11, 6)
			h := newIndexRun(t, w, workers)
			const batch, batches = 16, 90
			var span []int // nil: every value; else attribute d draws from its first span[d]
			for b := 0; b < batches; b++ {
				switch b {
				case 40: // one value interned after every table was published
					w.doms[1].Intern("late")
				case 50: // a preference on it: its relation grows past the table
					c := h.activeUser()
					late := w.doms[1].Size() - 1
					h.applyBoth("ApplyPreference(late)", func(s *Sharded) error { return s.ApplyPreference(c, 1, late, 0) })
				case 60: // attribute 2's domain passes order.TableMaxN
					for w.doms[2].Size() <= order.TableMaxN+8 {
						w.doms[2].Intern(fmt.Sprint("wide", w.doms[2].Size()))
					}
				case 75: // and a relation reaches past it: no table at all
					c := h.activeUser()
					h.applyBoth("ApplyPreference(wide)", func(s *Sharded) error {
						return s.ApplyPreference(c, 2, w.doms[2].Size()-1, 1)
					})
				}
				if b >= 60 && b < 70 {
					span = []int{w.doms[0].Size(), w.doms[1].Size(), 10, w.doms[3].Size()} // not yet the wide values
				} else {
					span = nil
				}
				objs := make([]object.Object, batch)
				for j := range objs {
					objs[j] = w.next(span)
				}
				h.arrive(objs)
				if b >= 20 && b%3 == 0 {
					h.lifecycle(b / 3)
				}
			}
			h.againstOracle()
			got, want := h.eng.Totals(), h.ref.Totals()
			if got.FilterComparisons >= want.FilterComparisons {
				t.Fatalf("filter comparisons %d, linear %d: the postings never narrowed a scan", got.FilterComparisons, want.FilterComparisons)
			}
			t.Logf("filter comparisons %d, linear %d", got.FilterComparisons, want.FilterComparisons)
		})
	}
}

// TestValueIndexRestoreContinuesLikeLive captures the indexed engine
// mid-stream, restores the state into fresh engines under one and two
// shards, and feeds all of them the rest of the stream: the restored
// engines rebuild their postings from the restored scan lists and make
// exactly the comparisons the live one makes.
func TestValueIndexRestoreContinuesLikeLive(t *testing.T) {
	w := newIndexWorld(12, 6)
	live, _, users := w.engines(t, 1)
	for i := 0; i < 600; i++ {
		o := w.next(nil)
		w.alive = append(w.alive, o)
		live.Process(o)
	}
	st := NewEngineState(len(users[0]), len(w.groups))
	live.CaptureState(st)
	var restored []*Sharded
	for _, workers := range []int{1, 2} {
		s, err := NewSharded(users[0], w.clusters(users[0]), nil, w.source(), workers, &stats.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		restored = append(restored, s)
	}
	base := live.Totals()
	for i := 0; i < 400; i++ {
		o := w.next(nil)
		w.alive = append(w.alive, o)
		want := live.Process(o)
		for k, s := range restored {
			if got := s.Process(o); !slices.Equal(got, want) {
				t.Fatalf("restored engine %d delivers object %d to %v, live to %v", k, o.ID, got, want)
			}
		}
	}
	wantCtr := live.Totals()
	for k, s := range restored {
		got := s.Totals()
		if got.FilterComparisons != wantCtr.FilterComparisons-base.FilterComparisons ||
			got.VerifyComparisons != wantCtr.VerifyComparisons-base.VerifyComparisons {
			t.Fatalf("restored engine %d: filter/verify comparisons %d/%d, live %d/%d", k,
				got.FilterComparisons, got.VerifyComparisons,
				wantCtr.FilterComparisons-base.FilterComparisons, wantCtr.VerifyComparisons-base.VerifyComparisons)
		}
		if !slices.Equal(clusterFronts(s)[0], clusterFronts(live)[0]) {
			t.Fatalf("restored engine %d: P_U scan order differs from the live one", k)
		}
		checkPostings(t, s)
	}
	if fu := clusterFronts(live)[0]; len(fu) < 2*indexMinLen {
		t.Fatalf("P_U holds %d members: too few for the postings to be read", len(fu))
	}
}

// TestValueIndexRetriesTheMovedMember: an arrival that evicts the first
// member and the last one of a long P_U. The first eviction swap-deletes
// the last member into position 0, where the linear scan tests it next;
// the indexed scan must read the word again to do the same, or it would
// leave a dominated member in P_U.
func TestValueIndexRetriesTheMovedMember(t *testing.T) {
	doms := []*order.Domain{order.NewDomain("a"), order.NewDomain("b")}
	for v := 0; v < 2; v++ {
		doms[0].Intern(fmt.Sprint(v))
	}
	const fillers = indexMinLen
	for v := 0; v < 3+fillers; v++ {
		doms[1].Intern(fmt.Sprint(v))
	}
	// a: 0 ≻ 1. b: 0 ≻ 1 and 0 ≻ 2, every other value unordered.
	p := pref.NewProfile(doms)
	for _, e := range [][3]int{{0, 0, 1}, {1, 0, 1}, {1, 0, 2}} {
		if err := p.Relation(e[0]).Add(e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	// (1,1) first, fillers with distinct unordered b values, (1,2) last:
	// pairwise incomparable. The arrival (0,0) dominates the first and
	// the last and no filler.
	objs := []object.Object{{ID: 0, Attrs: []int32{1, 1}}}
	for i := 0; i < fillers; i++ {
		objs = append(objs, object.Object{ID: len(objs), Attrs: []int32{int32(i % 2), int32(3 + i)}})
	}
	objs = append(objs, object.Object{ID: len(objs), Attrs: []int32{1, 2}}, object.Object{ID: len(objs) + 1, Attrs: []int32{0, 0}})
	clusters := func(u *pref.Profile) []Cluster { return []Cluster{{Members: []int{0}, Common: u.Clone()}} }
	u, v := p.Clone(), p.Clone()
	eng, err := NewSharded([]*pref.Profile{u}, clusters(u), nil, nil, 1, &stats.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewShardedPerObject([]*pref.Profile{v}, clusters(v), nil, nil, 1, &stats.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if got, want := eng.Process(o), ref.Process(o); !slices.Equal(got, want) {
			t.Fatalf("object %d delivered to %v, linear scan delivers to %v", o.ID, got, want)
		}
	}
	got, want := clusterFronts(eng)[0], clusterFronts(ref)[0]
	if !slices.Equal(got, want) || slices.Contains(got, 0) || slices.Contains(got, fillers+1) {
		t.Fatalf("P_U is %v, linear scan has %v; the arrival dominates objects 0 and %d", got, want, fillers+1)
	}
	if f := ftvShards(eng)[0]; !f.postings[0].current(f.ClusterFronts[0]) {
		t.Fatal("the arrival's scan did not read the postings")
	}
	checkPostings(t, eng)
}

// TestValueIndexOrderedValuesFollowTheRow: the ordered-value list cached for a value
// is read again when the relation publishes a new table, and forget lets
// go of the table it was read from.
func TestValueIndexOrderedValuesFollowTheRow(t *testing.T) {
	dom := order.NewDomain("a")
	for v := 0; v < 4; v++ {
		dom.Intern(fmt.Sprint(v))
	}
	r := order.NewRelation(dom)
	if err := r.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	var p valuePostings
	p.near = make([][]orderedVals, 1)
	if got := p.ordered(0, 0, r.Row(0)); !slices.Equal(got, []uint16{1}) {
		t.Fatalf("ordered = %v, want [1]", got)
	}
	if err := r.Add(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.ordered(0, 0, r.Row(0)); !slices.Equal(got, []uint16{1, 2}) {
		t.Fatalf("after 2 ≻ 0, ordered = %v, want [1 2]", got)
	}
	p.forget()
	if p.near[0][0].row != nil {
		t.Fatal("forget kept the row")
	}
}

// TestValueIndexScanDoesNotAllocate: once the postings and the
// ordered-value lists exist, planning and running an indexed scan
// allocates nothing — the plan lives in the engine's reused scratch.
func TestValueIndexScanDoesNotAllocate(t *testing.T) {
	w := newIndexWorld(14, 3)
	objs := make([]object.Object, 4096)
	for i := range objs {
		objs[i] = w.next(nil)
	}
	f, probes := scanWorld(w.asked, objs, 2*indexMinLen)
	ix := &f.postings[0]
	scan := func(o object.Object) {
		var po pref.Probe
		f.Clusters[0].Common.Prepare(o, &po)
		if !f.planIndexed(0, ix, &po, o) {
			t.Fatalf("object %d: the scan of a %d-member P_U was not planned", o.ID, f.ClusterFronts[0].Len())
		}
		f.scanIndexed(0, ix, &po)
	}
	for _, o := range probes {
		scan(o) // fill the ordered-value lists
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		scan(probes[i%len(probes)])
		i++
	}); allocs != 0 {
		t.Fatalf("an indexed scan allocates %.1f times", allocs)
	}
}

// FuzzValuePostings grows one cluster's P_U past indexMinLen, then reads
// the input as arrivals and lifecycle calls — two bytes each, the first
// picking the call — holding the indexed engine to the linear one and
// its postings to a recomputation from the scan list after every step.
func FuzzValuePostings(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 5, 3, 1, 4, 2, 5, 3, 6, 4, 7, 0, 8})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 4, 0, 1, 7, 0, 9, 0, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newIndexWorld(13, 3)
		h := newIndexRun(t, w, 1)
		for len(clusterFronts(h.eng)[0]) < indexMinLen+indexMinLen/2 {
			pre := make([]object.Object, 64)
			for i := range pre {
				pre[i] = w.next(nil)
			}
			h.arrive(pre)
		}
		for i := 0; i+1 < len(data); i += 2 {
			w.r.Seed(int64(data[i+1])) // the argument byte steers the step's draws
			switch op := data[i] % 8; {
			case op < 3:
				h.arrive([]object.Object{w.next(nil)})
			default:
				h.lifecycle(int(op - 3))
			}
		}
	})
}

// scanWorld builds a one-cluster exact engine whose P_U has just reached
// n members, and the next 256 arrivals of the stream that dominate no
// member: a scan of one evicts nothing, so a benchmark can repeat it.
func scanWorld(users []*pref.Profile, objs []object.Object, n int) (*FilterThenVerify, []object.Object) {
	members := make([]int, len(users))
	for c := range members {
		members[c] = c
	}
	f := NewFilterThenVerify(users, []Cluster{{Members: members, Common: pref.Common(users)}}, nil)
	rest := objs
	for len(rest) > 0 && f.ClusterFronts[0].Len() < n {
		f.Process(rest[0])
		rest = rest[1:]
	}
	if f.ClusterFronts[0].Len() < n {
		panic(fmt.Sprintf("the stream grows P_U to %d members, not %d", f.ClusterFronts[0].Len(), n))
	}
	var probes []object.Object
	for _, o := range rest {
		var po pref.Probe
		f.Clusters[0].Common.Prepare(o, &po)
		if !slices.ContainsFunc(f.ClusterFronts[0].Objects(), po.Dominates) {
			probes = append(probes, o)
		}
		if len(probes) == 256 {
			break
		}
	}
	return f, probes
}

// BenchmarkFilterScan prices one filter scan of an arrival, read linearly
// and through the value postings (planning included: the arrival's
// comparable values looked up, and the postings ORed), and what the
// postings weigh per P_U member, at P_U lengths either side of
// indexMinLen, on two cluster shapes: 160 movie users
// (batch_ftv's one cluster) and 8 users of small random orders
// (BenchmarkProcessDistinct's clusters). The arrivals are the stream's
// next ones that would evict nothing: a dominated one stops at its first
// dominator in scan order, the case least favourable to the postings,
// whose planning is paid in full however early the scan stops.
func BenchmarkFilterScan(b *testing.B) {
	movie := datagen.Generate(datagen.Movie().Scaled(1<<15, 160))
	movieObjs := make([]object.Object, len(movie.Objects))
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(movie.Objects)) {
		movieObjs[i] = object.Object{ID: i, Attrs: movie.Objects[k].Attrs}
	}
	small, smallObjs := fixtures.RandomWorld(rand.New(rand.NewSource(42)), 8, 4, 16, 1<<15, 24)
	worlds := []struct {
		name  string
		users []*pref.Profile
		objs  []object.Object
	}{{"movie160", movie.Users, movieObjs}, {"random8", small, smallObjs}}
	for _, w := range worlds {
		for _, n := range []int{32, indexMinLen / 2, indexMinLen, 2 * indexMinLen, 1024} {
			f, probes := scanWorld(w.users, w.objs, n)
			ix := &f.postings[0]
			for _, indexed := range []bool{false, true} {
				mode := "linear"
				if indexed {
					mode = "indexed"
				}
				b.Run(fmt.Sprintf("%s/len=%d/%s", w.name, n, mode), func(b *testing.B) {
					ctr := &stats.Counters{}
					f.Ctr = ctr
					for i := 0; i < b.N; i++ {
						o := probes[i%len(probes)]
						var po pref.Probe
						f.Clusters[0].Common.Prepare(o, &po)
						if indexed && f.planIndexed(0, ix, &po, o) {
							f.scanIndexed(0, ix, &po)
						} else {
							f.scanLinear(0, ix, &po)
						}
					}
					b.ReportMetric(float64(ctr.FilterComparisons)/float64(b.N), "cmp/op")
					if indexed {
						b.ReportMetric(float64(ix.bytes())/float64(f.ClusterFronts[0].Len()), "B/member")
					}
				})
			}
		}
	}
}

// bytes is what the postings hold on the heap: per value its posting
// words, set header and pointer, and count, and the ordered-value lists.
func (p *valuePostings) bytes() int {
	n := 0
	for d, post := range p.post {
		n += len(post) * (p.room/8 + 24 + 8 + 4)
		for _, e := range p.near[d] {
			n += 48 + 2*cap(e.vals)
		}
	}
	return n
}
