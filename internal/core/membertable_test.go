package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
		o := w.next()
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

// TestRemoveObjectKeepsMemberTable: a RemoveObject changes no relation,
// so on an append-only cluster of memberTableMin or more members it
// leaves the member table built (only the postings go stale), and the
// next arrival's verify tier reads the table as it stands: it allocates
// nothing.
func TestRemoveObjectKeepsMemberTable(t *testing.T) {
	w := newMemberWorld(24)
	s, err := NewSharded(w.asked, w.clusters(w.asked), nil, w.source, 1, &stats.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	f := s.shards[0].(*FilterThenVerify)
	dominated := func(o object.Object) bool {
		var po pref.Probe
		f.Clusters[0].Common.Prepare(o, &po)
		return slices.ContainsFunc(f.ClusterFronts[0].Objects(), po.DominatedBy)
	}
	var probes []object.Object
	for len(probes) < 64 {
		o := w.next()
		if f.ClusterFronts[0].Len() > 0 && dominated(o) {
			probes = append(probes, o)
			continue
		}
		w.alive = append(w.alive, o)
		s.Process(o)
	}
	tab := f.memberTableOf(0)
	if tab == nil {
		t.Fatal("the 75-member cluster has no member table")
	}
	var co []int
	for _, o := range probes {
		co = f.verifyMembers(0, tab, o, co[:0]) // warm the scratch
	}

	gone := f.ClusterFronts[0].Objects()[0]
	w.alive = slices.DeleteFunc(w.alive, func(o object.Object) bool { return o.ID == gone.ID })
	s.RemoveObject(gone)
	if !f.tables[0].built {
		t.Fatal("RemoveObject dropped the member table")
	}
	if err := f.CheckMemberTable(0); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(probes, dominated)
	if i < 0 {
		t.Fatal("the removal left no probe dominated under the cluster relation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	co = f.verifyMembers(0, f.memberTableOf(0), probes[i], co[:0])
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("the first verify tier after a RemoveObject allocates %d times", n)
	}
	if len(co) != 0 {
		t.Fatalf("an arrival dominated under the cluster relation was delivered to %v", co)
	}
}

// TestVerifyShareWaitsForAnUnrejectedMember: a dominator a member's scan
// meets is shared only while a member still to scan is unrejected. In a
// cluster of memberTableMin users that all order a ≻ x but member 1,
// which orders b ≻ x instead, P_U and every P_c are [A, B] and the
// arrival X passes the filter (≻_U is empty). Member 0's scan meets
// A ≻ X, and sharing A rejects X for everyone but member 1. Member 1's
// scan passes A and meets B ≻ X with every later member rejected
// already, so B is not shared: 4 verify comparisons (member 0: A and
// its share; member 1: A and B), where a share whenever members follow
// spent 5.
func TestVerifyShareWaitsForAnUnrejectedMember(t *testing.T) {
	dom := order.NewDomain("v")
	a, b, x := dom.Intern("a"), dom.Intern("b"), dom.Intern("x")
	users := make([]*pref.Profile, memberTableMin)
	members := make([]int, memberTableMin)
	for c := range users {
		users[c], members[c] = pref.NewProfile([]*order.Domain{dom}), c
		better := a
		if c == 1 {
			better = b
		}
		if err := users[c].Relation(0).Add(better, x); err != nil {
			t.Fatal(err)
		}
	}
	ctr := &stats.Counters{}
	f := NewFilterThenVerify(users, []Cluster{{Members: members, Common: pref.Common(users)}}, ctr)
	for id, v := range []int{a, b} {
		if co := f.Process(object.Object{ID: id, Attrs: []int32{int32(v)}}); len(co) != len(users) {
			t.Fatalf("object %d reached %d of %d users", id, len(co), len(users))
		}
	}
	if f.memberTableOf(0) == nil {
		t.Fatal("the cluster has no member table")
	}
	before := ctr.Snapshot()
	if co := f.Process(object.Object{ID: 2, Attrs: []int32{int32(x)}}); len(co) != 0 {
		t.Fatalf("X, dominated for every user, reached %v", co)
	}
	after := ctr.Snapshot()
	if got := after.VerifyComparisons - before.VerifyComparisons; got != 4 {
		t.Fatalf("X cost %d verify comparisons, want 4: a share no later member could use was spent", got)
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
