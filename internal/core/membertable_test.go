package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/stats"
)

// newMemberWorld is indexWorld's community dealt into two clusters of 75
// users: both past memberTableMin, so their verify tiers read member
// tables.
func newMemberWorld(seed int64) *indexWorld {
	w := newIndexWorld(seed, 150)
	w.groups = [][]int{nil, nil}
	for u := range w.asked {
		w.groups[u/75] = append(w.groups[u/75], u)
	}
	return w
}

// withControl adds the control engine: a class-keyed engine over its own
// clones of the profiles, with its member tables off.
func (h *indexRun) withControl(workers int) {
	h.t.Helper()
	for _, p := range h.w.asked {
		h.users[2] = append(h.users[2], p.Clone())
	}
	s, err := NewSharded(h.users[2], h.w.clusters(h.users[2]), nil, h.w.source(), workers, &stats.Counters{})
	if err != nil {
		h.t.Fatal(err)
	}
	for _, f := range ftvShards(s) {
		f.memberMin = math.MaxInt
	}
	h.ctl = s
}

// tablesRead reports whether some shard of s holds a built member table.
func tablesRead(s *Sharded) bool {
	for _, f := range ftvShards(s) {
		for i := range f.tables {
			if f.tables[i].built {
				return true
			}
		}
	}
	return false
}

// tableBehind reports whether some shard of s holds a built member table
// over fewer values than one of doms now has.
func tableBehind(s *Sharded, doms []*order.Domain) bool {
	for _, f := range ftvShards(s) {
		for i := range f.tables {
			for d, n := range f.tables[i].n {
				if f.tables[i].built && n < doms[d].Size() {
					return true
				}
			}
		}
	}
	return false
}

// TestMemberTableChangesOnlyWhichComparisons holds the class-keyed
// engine, whose verify tier reads member tables on the two 75-user
// clusters, to the per-object engine's per-member linear scans and to the
// same class-keyed engine with its tables off, over every lifecycle call
// between batches, a value interned after the tables were built and then
// ordered, and a domain grown past order.TableMaxN and then reached by a
// relation. Deliveries, every P_U and P_c in scan order and every C_o
// must be identical, the filter counts equal to the control's, and the
// verify counts no higher at any step and lower overall. The counts must
// be the same at every shard count, and the frontiers Def. 3.2's (checked
// on one shard: every engine holds them equal to the reference's).
func TestMemberTableChangesOnlyWhichComparisons(t *testing.T) {
	var counts [][]stats.Counters
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			w := newMemberWorld(21)
			h := newIndexRun(t, w, workers)
			h.withControl(workers)
			const batch, batches = 8, 90
			read := false
			for b := 0; b < batches; b++ {
				var span []int // nil: every value; else attribute d draws from its first span[d]
				switch b {
				case 41: // one value interned after the tables were built
					w.doms[1].Intern("late")
				case 50: // a preference on it
					c := h.activeUser()
					late := w.doms[1].Size() - 1
					h.applyBoth("ApplyPreference(late)", func(s *Sharded) error { return s.ApplyPreference(c, 1, late, 0) })
				case 60: // attribute 2's domain passes order.TableMaxN
					for w.doms[2].Size() <= order.TableMaxN+8 {
						w.doms[2].Intern(fmt.Sprint("wide", w.doms[2].Size()))
					}
				case 75: // and a relation reaches past it
					c := h.activeUser()
					h.applyBoth("ApplyPreference(wide)", func(s *Sharded) error {
						return s.ApplyPreference(c, 2, w.doms[2].Size()-1, 1)
					})
				}
				if b >= 60 && b < 70 {
					span = []int{w.doms[0].Size(), w.doms[1].Size(), 10, w.doms[3].Size()} // not yet the wide values
				}
				objs := make([]object.Object, batch)
				for j := range objs {
					objs[j] = w.next(span)
				}
				h.arrive(objs)
				read = read || tablesRead(h.eng)
				if b == 41 && !tableBehind(h.eng, w.doms) {
					t.Fatal("no member table was read past the late value")
				}
				if b >= 20 && b%3 == 0 {
					h.lifecycle(b / 3)
				}
			}
			if workers == 1 { // the other shard counts end in the same frontiers
				h.againstOracle()
			}
			if !read {
				t.Fatal("no verify tier read a member table")
			}
			got, want := h.eng.Totals(), h.ctl.Totals()
			if got.VerifyComparisons >= want.VerifyComparisons {
				t.Fatalf("verify comparisons %d, without member tables %d: no dominator was shared", got.VerifyComparisons, want.VerifyComparisons)
			}
			t.Logf("verify comparisons %d, without member tables %d", got.VerifyComparisons, want.VerifyComparisons)
			counts = append(counts, h.counts)
		})
	}
	for k := 1; k < len(counts); k++ {
		if !slices.Equal(counts[k], counts[0]) {
			t.Fatalf("the counts after each step differ between %d shards and one", k+1)
		}
	}
}

// TestMemberTableRestoreContinuesLikeLive captures the engine mid-stream,
// restores the state into fresh engines under one and two shards, and
// feeds all of them the rest of the stream: the restored engines rebuild
// their member tables and make exactly the comparisons the live one makes.
func TestMemberTableRestoreContinuesLikeLive(t *testing.T) {
	w := newMemberWorld(22)
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
		if !tablesRead(s) {
			t.Fatalf("restored engine %d read no member table", k)
		}
	}
}

// TestMemberTableVerifyDoesNotAllocate: once the table and the engine's
// scratch exist, the verify tier over a table allocates nothing; an
// ApplyPreference rewrites its member's column and leaves the table
// current, and neither that rewrite nor rebuilding the table in place
// over unchanged domains allocates. The arrivals are dominated under the cluster
// relation by an alive object, so every member's scan rejects them and
// changes nothing: the measurement can repeat them.
func TestMemberTableVerifyDoesNotAllocate(t *testing.T) {
	w := newMemberWorld(23)
	f := NewFilterThenVerify(w.asked, w.clusters(w.asked), nil)
	var probes []object.Object
	for len(probes) < 64 {
		o := w.next(nil)
		var po pref.Probe
		f.Clusters[0].Common.Prepare(o, &po)
		if f.ClusterFronts[0].Len() > 0 && slices.ContainsFunc(f.ClusterFronts[0].Objects(), po.DominatedBy) {
			probes = append(probes, o)
			continue
		}
		f.Process(o)
	}
	tab := f.memberTableOf(0)
	if tab == nil {
		t.Fatal("the 75-member cluster has no member table")
	}
	var co []int
	for _, o := range probes {
		co = f.verifyMembers(0, tab, o, co[:0]) // warm the scratch
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		co = f.verifyMembers(0, tab, probes[i%len(probes)], co[:0])
		i++
	}); allocs != 0 {
		t.Fatalf("the verify tier over a member table allocates %.1f times", allocs)
	}
	if len(co) != 0 {
		t.Fatalf("an arrival dominated under the cluster relation was delivered to %v", co)
	}
	c, applied := w.groups[0][0], false
	for d := 0; d < len(w.doms) && !applied; d++ {
		if x, y, ok := addablePair(f.Users[c].Relation(d)); ok {
			if err := f.ApplyPreference(c, d, x, y); err != nil {
				t.Fatal(err)
			}
			applied = true
		}
	}
	if !applied || !f.tables[0].built {
		t.Fatal("no ApplyPreference was applied, or it dropped the table instead of rewriting a column")
	}
	if err := f.CheckMemberTable(0); err != nil {
		t.Fatal(err)
	}
	m := int(f.slot[c])
	if allocs := testing.AllocsPerRun(10, func() { f.tables[0].refresh(f.Users, m, -1) }); allocs != 0 {
		t.Fatalf("rewriting a member's columns allocates %.1f times", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		f.tables[0].built = false
		f.memberTableOf(0)
	}); allocs != 0 {
		t.Fatalf("an in-place rebuild allocates %.1f times", allocs)
	}
}

// addablePair returns a pair r does not order and can take as x ≻ y.
func addablePair(r *order.Relation) (x, y int, ok bool) {
	n := r.Dom().Size()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y && !r.Has(x, y) && r.CanAdd(x, y) {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}

// FuzzMemberTable builds a member table over a random community of 1 to
// 150 members (so one to three words per cell), interns values after the
// build, and holds the table to every member's own relation on random
// pairs of objects: compare agrees with pref.Probe.Compare for every
// member, dominatedFor marks exactly the members whose relation has the
// second object dominate the first, and a pair that differs on a value
// interned after the build compares Incomparable and marks nobody.
func FuzzMemberTable(f *testing.F) {
	f.Add(int64(1), uint8(75), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), uint8(149), uint8(0), []byte{9, 9, 9, 0, 0, 0, 1, 2, 3, 4})
	f.Add(int64(3), uint8(0), uint8(2), []byte{255, 7, 3, 1})
	f.Fuzz(func(t *testing.T, seed int64, size, late uint8, data []byte) {
		const dims, domSize = 3, 6
		r := rand.New(rand.NewSource(seed))
		var doms []*order.Domain
		for d := 0; d < dims; d++ {
			dom := order.NewDomain(fmt.Sprint("a", d))
			for v := 0; v < domSize; v++ {
				dom.Intern(fmt.Sprint(v))
			}
			doms = append(doms, dom)
		}
		base := pref.NewProfile(doms)
		for e := 0; e < 4; e++ {
			d := r.Intn(dims)
			base.Relation(d).Add(r.Intn(domSize), r.Intn(domSize)) // rejections fine
		}
		members := make([]int, 1+int(size)%150)
		users := make([]*pref.Profile, len(members))
		for m := range members {
			members[m] = m
			users[m] = base.Clone()
			for e, edges := 0, r.Intn(6); e < edges; e++ {
				d := r.Intn(dims)
				users[m].Relation(d).Add(r.Intn(domSize), r.Intn(domSize)) // rejections fine
			}
		}
		var tab memberTable
		tab.rebuild(users, members, doms)
		for d := range doms { // values interned after the build
			for v := 0; v < int(late)%3; v++ {
				doms[d].Intern(fmt.Sprint("late", v))
			}
		}
		values := domSize + int(late)%3
		var objs []object.Object
		for i := 0; i+dims <= len(data); i += dims {
			attrs := make([]int32, dims)
			for d := range attrs {
				attrs[d] = int32(int(data[i+d]) % values)
			}
			objs = append(objs, object.Object{ID: len(objs), Attrs: attrs})
		}
		var sc memberScan
		for i := 0; i+1 < len(objs); i++ {
			o, p := objs[i], objs[i+1]
			if slices.Equal(o.Attrs, p.Attrs) {
				continue
			}
			lateDiff := false
			for d := range o.Attrs {
				if o.Attrs[d] != p.Attrs[d] && max(o.Attrs[d], p.Attrs[d]) >= domSize {
					lateDiff = true
				}
			}
			tab.prepare(o, &sc)
			tab.dominatedFor(&sc, p)
			for m, c := range members {
				var po pref.Probe
				users[c].Prepare(o, &po)
				want := po.Compare(p)
				got := tab.compare(&sc, m, p)
				if got != want {
					t.Fatalf("member %d: %v against %v compares %v, its relation %v", m, o.Attrs, p.Attrs, got, want)
				}
				if lateDiff && got != pref.Incomparable {
					t.Fatalf("member %d: %v against %v differ on a late value, yet compare %v", m, o.Attrs, p.Attrs, got)
				}
				if sc.rejects(m) != (want == pref.Right) {
					t.Fatalf("member %d: %v dominated by %v is %v, the member set says %v", m, o.Attrs, p.Attrs, want == pref.Right, sc.rejects(m))
				}
			}
		}
	})
}

// BenchmarkVerifyTier prices Alg. 2 on one movie-community cluster of 8,
// 16, 32, 64 and 160 members, with the verify tier reading a member table
// and with the per-member scans, over a 16 384-object stream drawn from a
// 2¹⁵-object catalogue (twins included), the engine rebuilt off the clock
// after each pass. It reports the comparisons per arrival and what the
// table weighs per member; memberTableMin sits where the table pays.
func BenchmarkVerifyTier(b *testing.B) {
	const n = 16384
	ds := datagen.Generate(datagen.Movie().Scaled(1<<15, 160))
	objs := make([]object.Object, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(ds.Objects))[:n] {
		objs[i] = object.Object{ID: i, Attrs: ds.Objects[k].Attrs}
	}
	for _, size := range []int{8, 16, 32, 64, 160} {
		users := ds.Users[:size]
		members := make([]int, size)
		for c := range members {
			members[c] = c
		}
		clusters := []Cluster{{Members: members, Common: pref.Common(users)}}
		for _, table := range []bool{false, true} {
			mode := "scans"
			if table {
				mode = "table"
			}
			b.Run(fmt.Sprintf("members=%d/%s", size, mode), func(b *testing.B) {
				ctr := &stats.Counters{}
				var eng *FilterThenVerify
				for i := 0; i < b.N; i++ {
					if i%n == 0 {
						b.StopTimer()
						eng = NewFilterThenVerify(users, clusters, ctr)
						eng.memberMin = math.MaxInt
						if table {
							eng.memberMin = 1
						}
						b.StartTimer()
					}
					eng.Process(objs[i%n])
				}
				b.ReportMetric(float64(ctr.Comparisons)/float64(b.N), "cmp/op")
				if table {
					b.ReportMetric(float64(eng.tables[0].bytes())/float64(size), "B/member")
				}
			})
		}
	}
}

// bytes is what the table's cells hold on the heap.
func (t *memberTable) bytes() int {
	n := 0
	for _, cells := range t.cells {
		n += 8 * cap(cells)
	}
	return n
}
