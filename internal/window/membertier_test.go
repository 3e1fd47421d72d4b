package window_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// tierWorld drives two engines through one seeded history: the sharded
// FilterThenVerifySW of shieldWorld, whose member tier runs for all
// members of a cluster at once over its member table, and Alg. 4
// (NewBaselineSW's shards) over clones of the same users, which has no
// member tier to get wrong. Arrivals go in small batches, so a history at
// several shards forks its batches.
type tierWorld struct {
	*shieldWorld
	refUsers []*pref.Profile
	ref      *core.Sharded
	workers  int
	span     int // objects and preferences draw from the first span values; 0: from all
}

// value draws a value of attribute d interned so far, among the first
// span of them.
func (tw *tierWorld) value(d int) int {
	if tw.span == 0 {
		return tw.shieldWorld.value(d)
	}
	return tw.r.Intn(min(tw.doms[d].Size(), tw.span))
}

// randomProfile is shieldWorld's, drawing its pairs through tw.value.
func (tw *tierWorld) randomProfile(edges int) *pref.Profile {
	p := pref.NewProfile(tw.doms)
	for d := range tw.doms {
		for e := 0; e < edges; e++ {
			p.Relation(d).Add(tw.value(d), tw.value(d))
		}
	}
	return p
}

// newTierWorld builds a world of 2–3 attributes and the given clusters
// over a window of 4–19 objects. With wide, the last attribute's domain
// is past order.TableMaxN (the objects draw from its first values), so
// the tier reads the members' own relations instead of the cells.
func newTierWorld(t *testing.T, r *rand.Rand, clusters [][]int, workers int, wide bool) *tierWorld {
	s := &shieldWorld{t: t, r: r, w: 4 + r.Intn(16), removed: map[int]bool{}, cases: map[string]int{}, commonFn: pref.Common, exact: true}
	for d := 0; d < 2+r.Intn(2); d++ {
		dom := order.NewDomain(string(rune('a' + d)))
		for v := 0; v < shieldDomSize; v++ {
			dom.Intern(string(rune('A' + v)))
		}
		s.doms = append(s.doms, dom)
	}
	tw := &tierWorld{shieldWorld: s, workers: workers}
	for last := s.doms[len(s.doms)-1]; wide && last.Size() <= order.TableMaxN; tw.span = 2 * shieldDomSize {
		last.Intern(fmt.Sprint("wide", last.Size()))
	}
	for _, members := range clusters {
		for range members {
			p := tw.randomProfile(4)
			s.users = append(s.users, p)
			s.active = append(s.active, true)
			tw.refUsers = append(tw.refUsers, p.Clone())
		}
	}
	s.clusters = clusters
	tw.build()
	return tw
}

func (tw *tierWorld) build() {
	tw.shieldWorld.build(tw.workers)
	ref, err := window.NewSharded(tw.refUsers, nil, tw.active, tw.w, tw.workers, nil)
	if err != nil {
		tw.t.Fatal(err)
	}
	tw.ref = ref
}

// both runs one lifecycle call on the engine and the reference.
func (tw *tierWorld) both(name string, call func(*core.Sharded) error) {
	for _, eng := range []*core.Sharded{tw.eng, tw.ref} {
		if err := call(eng); err != nil {
			tw.t.Fatalf("%s: %v", name, err)
		}
	}
}

// step performs one random operation on both engines and names it.
func (tw *tierWorld) step() string {
	s, r := tw.shieldWorld, tw.r
	users := s.aliveUsers()
	c := users[r.Intn(len(users))]
	switch k := r.Float64(); {
	case k < 0.55:
		batch := make([]object.Object, 1+r.Intn(3))
		for i := range batch {
			o := object.Object{ID: len(s.objs), Attrs: make([]int32, len(s.doms))}
			for d := range o.Attrs {
				if r.Intn(16) == 0 { // a value no relation orders yet
					o.Attrs[d] = int32(s.doms[d].Intern(fmt.Sprintf("late%d", s.doms[d].Size())))
				} else {
					o.Attrs[d] = int32(tw.value(d))
				}
			}
			s.objs = append(s.objs, o)
			if s.slots = append(s.slots, o); len(s.slots) > s.w {
				s.slots = s.slots[1:]
			}
			batch[i] = o
		}
		got, want := tw.eng.ProcessBatch(batch), tw.ref.ProcessBatch(batch)
		for i, o := range batch {
			if !slices.Equal(got[i], want[i]) {
				tw.t.Fatalf("object %d delivered to %v, Alg. 4 delivers it to %v", o.ID, got[i], want[i])
			}
		}
		return fmt.Sprintf("ProcessBatch(%d…%d)", batch[0].ID, batch[len(batch)-1].ID)
	case k < 0.68:
		id := len(s.objs) - 1 - r.Intn(s.w+2)
		if id < 0 || s.removed[id] {
			return "nothing"
		}
		s.removed[id] = true
		for i, in := range s.slots {
			if in.ID == id {
				s.slots[i] = object.Object{ID: -1}
			}
		}
		tw.both("RemoveObject", func(e *core.Sharded) error { e.RemoveObject(s.objs[id]); return nil })
		return fmt.Sprintf("RemoveObject(%d)", id)
	case k < 0.78:
		d := r.Intn(len(s.doms))
		x, y := tw.value(d), tw.value(d)
		if !s.users[c].Relation(d).CanAdd(x, y) {
			return "nothing"
		}
		tw.both("ApplyPreference", func(e *core.Sharded) error { return e.ApplyPreference(c, d, x, y) })
		return fmt.Sprintf("ApplyPreference(%d: %d>%d on %d)", c, x, y, d)
	case k < 0.87:
		d := r.Intn(len(s.doms))
		asserted := s.users[c].Relation(d).Asserted()
		if len(asserted) == 0 {
			return "nothing"
		}
		tu := asserted[r.Intn(len(asserted))]
		tw.both("RetractPreference", func(e *core.Sharded) error { return e.RetractPreference(c, d, tu.Better, tu.Worse) })
		return fmt.Sprintf("RetractPreference(%d: %d>%d on %d)", c, tu.Better, tu.Worse, d)
	case k < 0.94:
		nu := len(s.users)
		p := tw.randomProfile(3)
		s.users, tw.refUsers = append(s.users, p), append(tw.refUsers, p.Clone())
		s.active = append(s.active, true)
		tw.eng.RegisterUser(nu, p)
		tw.ref.RegisterUser(nu, tw.refUsers[nu])
		cluster := s.clusterOf(c)
		switch k := r.Intn(6); {
		case k < 1:
			cluster = len(s.clusters)
			s.clusters = append(s.clusters, nil)
		case k < 3 && s.dormant() >= 0:
			cluster = s.dormant()
		}
		s.clusters[cluster] = append(s.clusters[cluster], nu)
		tw.eng.ActivateUser(nu, cluster)
		tw.ref.ActivateUser(nu, -1)
		return fmt.Sprintf("ActivateUser(%d in %d)", nu, cluster)
	default:
		if len(users) <= 2 {
			return "nothing"
		}
		s.active[c] = false
		ui := s.clusterOf(c)
		s.clusters[ui] = slices.DeleteFunc(s.clusters[ui], func(m int) bool { return m == c })
		tw.both("RemoveUser", func(e *core.Sharded) error { e.RemoveUser(c); return nil })
		return fmt.Sprintf("RemoveUser(%d)", c)
	}
}

// check holds the engine to the reference after a step: every alive
// user's P_c, C_o of every object the window holds and of the one that
// just left it, and every member table against its members' relations
// and C_o.
func (tw *tierWorld) check(after string) {
	tw.t.Helper()
	for _, v := range tw.views() {
		if v.TableErr != nil {
			tw.t.Fatalf("after %s: member table of %v: %v", after, v.Members, v.TableErr)
		}
	}
	for _, c := range tw.aliveUsers() {
		if got, want := fixtures.Sorted(tw.eng.UserFrontier(c)), fixtures.Sorted(tw.ref.UserFrontier(c)); !reflect.DeepEqual(got, want) {
			tw.t.Fatalf("after %s: frontier of user %d is %v, Alg. 4 keeps %v", after, c, got, want)
		}
	}
	for id := max(len(tw.objs)-tw.w-1, 0); id < len(tw.objs); id++ {
		if got, want := tw.eng.Targets(id), tw.ref.Targets(id); !slices.Equal(got, want) {
			tw.t.Fatalf("after %s: C_o of %d is %v, Alg. 4 gives %v", after, id, got, want)
		}
	}
}

// roundTrip restores both engines, mid-stream, into the next shard count.
func (tw *tierWorld) roundTrip() {
	st := core.NewEngineState(len(tw.users), len(tw.clusters))
	tw.eng.CaptureState(st)
	ref := core.NewEngineState(len(tw.refUsers), 0)
	tw.ref.CaptureState(ref)
	tw.workers = 1 + tw.workers%3
	tw.build()
	if err := tw.eng.RestoreState(st); err != nil {
		tw.t.Fatal(err)
	}
	if err := tw.ref.RestoreState(ref); err != nil {
		tw.t.Fatal(err)
	}
}

// runTierHistory plays steps operations, restores mid-stream, and ends
// with every alive user's frontier held to Def. 7.1 (internal/oracle).
func runTierHistory(t *testing.T, seed int64, clusters [][]int, workers, steps int, wide bool) {
	r := rand.New(rand.NewSource(seed))
	tw := newTierWorld(t, r, clusters, workers, wide)
	restoreAt := steps/3 + r.Intn(steps/3+1)
	for i := 0; i < steps; i++ {
		tw.check(tw.step())
		if i == restoreAt {
			tw.roundTrip()
			tw.check("restore")
		}
	}
	alive := tw.alive()
	for _, c := range tw.aliveUsers() {
		if got, want := fixtures.Sorted(tw.eng.UserFrontier(c)), fixtures.Frontier(fixtures.Asserted(tw.users[c]), alive); !reflect.DeepEqual(got, want) {
			t.Fatalf("frontier of user %d is %v, Def. 7.1 says %v", c, got, want)
		}
	}
}

// tierClusters is a community of three clusters of the given sizes.
func tierClusters(sizes ...int) [][]int {
	var out [][]int
	next := 0
	for _, n := range sizes {
		var members []int
		for range n {
			members = append(members, next)
			next++
		}
		out = append(out, members)
	}
	return out
}

// TestMemberTierMatchesBaselineSW holds the windowed member tier — every
// member's verdict on an arrival and every member's mend on a departure,
// taken at once from the member table and the holder words — to Alg. 4
// over the same users through seeded histories of arrivals and expiries,
// removals, preference updates and retractions, users joining (a live, a
// dormant or a new cluster) and leaving, and a restore into another shard
// count: identical deliveries, P_c and C_o after every step, member
// tables equal to the members' relations and holder words to C_o, and
// the oracle's frontiers at the end. One community has a cluster of 70
// members, so its member sets take two words; one has a domain past
// order.TableMaxN, so its tier reads no cells.
func TestMemberTierMatchesBaselineSW(t *testing.T) {
	for _, world := range []struct {
		sizes []int
		wide  bool
	}{{[]int{3, 4, 1}, false}, {[]int{70, 2, 1}, false}, {[]int{3, 4, 1}, true}} {
		for _, workers := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("clusters=%v/wide=%v/workers=%d/seed=%d", world.sizes, world.wide, workers, seed), func(t *testing.T) {
					runTierHistory(t, seed, tierClusters(world.sizes...), workers, 200, world.wide)
				})
			}
		}
	}
}

// FuzzMemberTier runs TestMemberTierMatchesBaselineSW's histories from
// fuzzed seeds, cluster sizes, shard counts and lengths.
func FuzzMemberTier(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(0), uint8(60))
	f.Add(int64(2), uint8(69), uint8(1), uint8(1), uint8(90))
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, a, b, workers, steps uint8) {
		runTierHistory(t, seed, tierClusters(1+int(a)%80, 1+int(b)%6, 1), 1+int(workers)%3, 20+int(steps)%120, seed%7 == 0)
	})
}

// twinClusters is clusteredWorld's first n users twice over, as two
// clusters of identical members: whatever a member of the first holds, its
// twin in the second holds too, so no C_o set empties while the first
// cluster's tier runs.
func twinClusters(n int) ([]*pref.Profile, []core.Cluster, []object.Object) {
	users, clusters, objs := clusteredWorld(rand.New(rand.NewSource(11)), 1, n, 3, 7, 4096)
	twins := make([]int, n)
	for i := range twins {
		twins[i] = n + i
		users = append(users, users[i].Clone())
	}
	clusters = append(clusters, core.Cluster{Members: twins, Common: pref.Common(users[n:])})
	return users, clusters, objs
}

// TestMemberTierDoesNotAllocate: once the member table and the tier's
// scratch exist, the windowed member tier allocates nothing, on arrival
// and on departure. The arrivals are dominated under the cluster relation
// by a P_U entry, so every member rejects them and nothing changes. The
// departure is of a P_U entry that members hold and whose leaving
// promotes nothing, run and undone (re-admitted) in turn: with its twin
// users still holding it, no C_o set is released or made.
func TestMemberTierDoesNotAllocate(t *testing.T) {
	users, clusters, objs := twinClusters(8)
	eng := window.NewFilterThenVerifySW(users, clusters, 64, nil)
	for _, o := range objs[:512] {
		eng.Process(o)
	}
	fu := eng.ClusterFronts[0]
	var rejected []object.Object
	for _, o := range objs[512:] {
		var po pref.Probe
		clusters[0].Common.Prepare(o, &po)
		if slices.ContainsFunc(fu.Objects(), po.DominatedBy) {
			o.ID += 1 << 20 // never an id the window holds
			rejected = append(rejected, o)
		}
	}
	if len(rejected) == 0 {
		t.Fatal("no arrival is dominated under the cluster relation")
	}
	var co []int
	for _, o := range rejected {
		co = eng.AdmitToMembers(0, o, co[:0]) // warm the scratch
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		co = eng.AdmitToMembers(0, rejected[i%len(rejected)], co[:0])
		i++
	}); allocs != 0 || len(co) != 0 {
		t.Fatalf("the arrival tier allocates %.1f times and delivers to %v", allocs, co)
	}

	sizes := func() []int {
		var n []int
		for _, c := range clusters[0].Members {
			n = append(n, len(eng.UserFrontier(c)))
		}
		return n
	}
	var out object.Object
	for _, x := range fu.Objects() {
		before := sizes()
		held := len(eng.Targets(x.ID)) / 2
		fu.Remove(x.ID)
		eng.MendMembers(0, x)
		after := sizes()
		fu.Add(x)
		eng.AdmitToMembers(0, x, co[:0])
		if held >= 2 && slices.Equal(sizes(), before) && sumOf(before)-sumOf(after) == held {
			out = x
			break
		}
	}
	if out.Attrs == nil {
		t.Fatal("no P_U entry with two holders leaves without a promotion")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		fu.Remove(out.ID)
		eng.MendMembers(0, out)
		fu.Add(out)
		co = eng.AdmitToMembers(0, out, co[:0])
	}); allocs != 0 {
		t.Fatalf("a departure and its undoing allocate %.1f times", allocs)
	}
}

func sumOf(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// BenchmarkWindowMemberTier prices Alg. 5 on one movie-community cluster
// of 2, 8, 16, 32 and 160 members at W = 400 and 3 200: the whole
// Process of each arrival at a full window — filter tier, member tier,
// expiry and mend — over a stream drawn from a 2¹⁵-object catalogue. It
// reports the comparisons per arrival and, with -benchmem, B/op.
func BenchmarkWindowMemberTier(b *testing.B) {
	const n = 16384
	ds := datagen.Generate(datagen.Movie().Scaled(1<<15, 160))
	objs := make([]object.Object, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(ds.Objects))[:n] {
		objs[i] = object.Object{ID: i, Attrs: ds.Objects[k].Attrs}
	}
	for _, w := range []int{400, 3200} {
		for _, size := range []int{2, 8, 16, 32, 160} {
			users := ds.Users[:size]
			members := make([]int, size)
			for c := range members {
				members[c] = c
			}
			clusters := []core.Cluster{{Members: members, Common: pref.Common(users)}}
			b.Run(fmt.Sprintf("W=%d/members=%d", w, size), func(b *testing.B) {
				ctr := &stats.Counters{}
				eng := window.NewFilterThenVerifySW(users, clusters, w, ctr)
				next := 0
				process := func() {
					o := objs[next%n]
					o.ID = next
					next++
					eng.Process(o)
				}
				for next < w {
					process()
				}
				base := ctr.Comparisons
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					process()
				}
				b.ReportMetric(float64(ctr.Comparisons-base)/float64(b.N), "cmp/op")
			})
		}
	}
}
