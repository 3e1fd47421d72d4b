package window_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/oracle"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/window"
)

// Removing an object that an older alive object dominates — buffered, but
// outside the frontier — must still re-admit the older objects it alone
// kept out of the buffer: they outlive its dominator. One attribute,
// a ≻ b ≻ c, d unrelated; window 4; arrivals e = (a), x = (c), o = (b),
// z = (d). o evicts x from the buffer; RemoveObject(o) has to bring x
// back, so that the arrival expiring e finds it. FilterThenVerifySW used
// to mend PB_U only when o left P_U, and lost x for good.
func TestRemoveObjectOutsideFrontierReadmitsItsEvictees(t *testing.T) {
	dom := order.NewDomain("v")
	for _, v := range []string{"a", "b", "c", "d"} {
		dom.Intern(v)
	}
	newUser := func() *pref.Profile {
		p := pref.NewProfile([]*order.Domain{dom})
		for _, tu := range [][2]int{{0, 1}, {1, 2}} {
			if err := p.Relation(0).Add(tu[0], tu[1]); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	obj := func(id int, v int32) object.Object { return object.Object{ID: id, Attrs: []int32{v}} }
	e, x, o, z, z2 := obj(0, 0), obj(1, 2), obj(2, 1), obj(3, 3), obj(4, 3)

	engines := map[string]interface {
		core.Monitor
		RemoveObject(o object.Object)
		Buffer(i int) []int
	}{
		"BaselineSW": window.NewSourcedBaselineSW([]*pref.Profile{newUser()}, 4, nil),
		"FilterThenVerifySW": window.NewSourcedFilterThenVerifySW([]*pref.Profile{newUser()},
			[]core.Cluster{{Members: []int{0}, Common: newUser()}}, 4, nil),
	}
	for name, eng := range engines {
		for _, in := range []object.Object{e, x, o, z} {
			eng.Process(in)
		}
		if got, want := eng.Buffer(0), []int{e.ID, o.ID, z.ID}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: buffer %v before the removal, want %v", name, got, want)
		}
		eng.RemoveObject(o)
		if got, want := eng.Buffer(0), []int{e.ID, x.ID, z.ID}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: buffer %v after removing o, want %v", name, got, want)
		}
		if got, want := fixtures.Sorted(eng.UserFrontier(0)), []int{e.ID, z.ID}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: frontier %v after removing o, want %v", name, got, want)
		}
		eng.Process(z2) // expires e
		if got, want := fixtures.Sorted(eng.UserFrontier(0)), []int{x.ID, z.ID, z2.ID}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: frontier %v once e expired, want %v", name, got, want)
		}
	}
}

// shieldWorld plays the Monitor's part for a sharded window engine — the
// user table, the clustering, the alive window — through a seeded history
// of arrivals and lifecycle calls, and knows how to check the engine
// against the definitions after each.
type shieldWorld struct {
	t        *testing.T
	r        *rand.Rand
	doms     []*order.Domain
	w        int
	users    []*pref.Profile
	active   []bool
	clusters [][]int // members by cluster index; nil: one buffer per user (Alg. 4)
	commonFn core.CommonFn
	exact    bool            // cluster relations are the members' intersection
	objs     []object.Object // every arrival, by id
	removed  map[int]bool
	slots    []object.Object // the window: the last w arrivals, removed ones blanked
	cases    map[string]int  // lifecycle cases a member table must follow, as met

	eng   *core.Sharded
	views func() []window.BufferView
}

// shieldDomSize is each domain's size at the start of a history; arrivals
// intern new values as they go (value).
const shieldDomSize = 5

// value draws a value of attribute d interned so far.
func (s *shieldWorld) value(d int) int { return s.r.Intn(s.doms[d].Size()) }

func (s *shieldWorld) randomProfile(edges int) *pref.Profile {
	p := pref.NewProfile(s.doms)
	for d := range s.doms {
		for e := 0; e < edges; e++ {
			p.Relation(d).Add(s.value(d), s.value(d))
		}
	}
	return p
}

// coreClusters renders the clustering for a constructor, dormant clusters
// included.
func (s *shieldWorld) coreClusters() []core.Cluster {
	if s.clusters == nil {
		return nil
	}
	out := make([]core.Cluster, len(s.clusters))
	for i, members := range s.clusters {
		out[i].Members = append([]int(nil), members...)
		if len(members) > 0 {
			out[i].Common = s.common(members)
		}
	}
	return out
}

func (s *shieldWorld) common(members []int) *pref.Profile {
	ps := make([]*pref.Profile, len(members))
	for i, c := range members {
		ps[i] = s.users[c]
	}
	return s.commonFn(ps)
}

func (s *shieldWorld) build(workers int) {
	eng, views, err := window.NewShardedViews(s.users, s.coreClusters(), s.active, s.source, s.w, workers, s.exact, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	eng.SetCommonFn(s.commonFn)
	s.eng, s.views = eng, views
}

// source yields the window's objects, oldest first: the engine's
// registry.
func (s *shieldWorld) source(yield func(object.Object) bool) { slices.Values(s.alive())(yield) }

// alive returns the window's objects, oldest first.
func (s *shieldWorld) alive() []object.Object {
	var out []object.Object
	for _, o := range s.slots {
		if o.ID >= 0 {
			out = append(out, o)
		}
	}
	return out
}

func (s *shieldWorld) clusterOf(c int) int {
	for ui, members := range s.clusters {
		for _, m := range members {
			if m == c {
				return ui
			}
		}
	}
	return -1
}

// dormant returns the first cluster without members, or -1.
func (s *shieldWorld) dormant() int {
	for ui, members := range s.clusters {
		if len(members) == 0 {
			return ui
		}
	}
	return -1
}

func (s *shieldWorld) aliveUsers() []int {
	var out []int
	for c, on := range s.active {
		if on {
			out = append(out, c)
		}
	}
	return out
}

// step performs one random operation and names it.
func (s *shieldWorld) step() string {
	r := s.r
	users := s.aliveUsers()
	c := users[r.Intn(len(users))]
	switch k := r.Float64(); {
	case k < 0.55:
		o := object.Object{ID: len(s.objs), Attrs: make([]int32, len(s.doms))}
		for d := range o.Attrs {
			// Now and then a value no relation orders yet, interned behind
			// the member tables' backs, as the Monitor interns arrivals.
			if r.Intn(16) == 0 {
				o.Attrs[d] = int32(s.doms[d].Intern(fmt.Sprintf("late%d", s.doms[d].Size())))
			} else {
				o.Attrs[d] = int32(s.value(d))
			}
		}
		s.objs = append(s.objs, o)
		if s.slots = append(s.slots, o); len(s.slots) > s.w {
			s.slots = s.slots[1:]
		}
		s.eng.Process(o)
		return fmt.Sprintf("Process(%d)", o.ID)
	case k < 0.68:
		// One of the last w+2 arrivals: alive, or just expired (a removal
		// the engine must ignore).
		id := len(s.objs) - 1 - r.Intn(s.w+2)
		if id < 0 || s.removed[id] {
			return "nothing" // the registry refuses it before the engine sees it
		}
		s.removed[id] = true
		for i, in := range s.slots {
			if in.ID == id {
				s.slots[i] = object.Object{ID: -1}
			}
		}
		s.eng.RemoveObject(s.objs[id])
		return fmt.Sprintf("RemoveObject(%d)", id)
	case k < 0.78:
		d := r.Intn(len(s.doms))
		x, y := s.value(d), s.value(d)
		if !s.users[c].Relation(d).CanAdd(x, y) {
			return "nothing"
		}
		if max(x, y) >= shieldDomSize {
			s.cases["ApplyPreference ordering a value interned late"]++
		}
		var before *pref.Profile
		if s.clusters != nil {
			before = s.common(s.clusters[s.clusterOf(c)])
		}
		if err := s.eng.ApplyPreference(c, d, x, y); err != nil {
			s.t.Fatal(err)
		}
		if before != nil && before.Equal(s.common(s.clusters[s.clusterOf(c)])) {
			s.cases["ApplyPreference leaving ≻_U equal"]++
		}
		return fmt.Sprintf("ApplyPreference(%d: %d>%d on %d)", c, x, y, d)
	case k < 0.87:
		d := r.Intn(len(s.doms))
		asserted := s.users[c].Relation(d).Asserted()
		if len(asserted) == 0 {
			return "nothing"
		}
		tu := asserted[r.Intn(len(asserted))]
		if err := s.eng.RetractPreference(c, d, tu.Better, tu.Worse); err != nil {
			s.t.Fatal(err)
		}
		return fmt.Sprintf("RetractPreference(%d: %d>%d on %d)", c, tu.Better, tu.Worse, d)
	case k < 0.94:
		nu := len(s.users)
		p := s.randomProfile(3)
		s.users = append(s.users, p)
		s.active = append(s.active, true)
		s.eng.RegisterUser(nu, p)
		cluster := -1
		if s.clusters != nil {
			cluster = s.clusterOf(c)
			switch k := r.Intn(6); {
			case k < 2:
				cluster = len(s.clusters)
				s.clusters = append(s.clusters, nil)
				s.cases["ActivateUser founding a cluster"]++
			case k < 4 && s.dormant() >= 0:
				cluster = s.dormant()
				s.cases["ActivateUser into a dormant cluster"]++
			default:
				s.cases["ActivateUser into a live cluster"]++
			}
			s.clusters[cluster] = append(s.clusters[cluster], nu)
		}
		s.eng.ActivateUser(nu, cluster)
		return fmt.Sprintf("ActivateUser(%d in %d)", nu, cluster)
	default:
		if len(users) <= 2 {
			return "nothing"
		}
		s.active[c] = false
		if s.clusters != nil {
			ui := s.clusterOf(c)
			if s.clusters[ui] = slices.DeleteFunc(s.clusters[ui], func(m int) bool { return m == c }); len(s.clusters[ui]) == 0 {
				s.cases["RemoveUser emptying a cluster"]++
			}
		}
		s.eng.RemoveUser(c)
		return fmt.Sprintf("RemoveUser(%d)", c)
	}
}

// check holds the engine to the definitions: every buffer is Def. 7.4's
// under its relation, every shield is the entry's youngest alive
// dominator, the frontier a buffer backs is its entries without one, and
// every user's frontier is Def. 7.1's — or, under an approximate cluster
// relation, inside the filter frontier (Lemma 6.6), which is all the
// procedure promises there.
func (s *shieldWorld) check(after string) {
	s.t.Helper()
	alive := s.alive()
	views := s.views()
	served := 0
	attrs := fixtures.Attrs(alive)
	for _, v := range views {
		served += len(v.Members)
		rel := fixtures.Closed(v.Relation) // Sec. 6's ≻̂_U is the procedure's output
		if s.exact {
			members := make([]oracle.Prefs[int32], len(v.Members))
			for i, c := range v.Members {
				members[i] = fixtures.Asserted(s.users[c])
			}
			rel = oracle.Common(members...)
		}
		if want := fixtures.Buffer(rel, alive); !reflect.DeepEqual(v.IDs, want) {
			s.t.Fatalf("after %s: buffer of %v is %v, Def. 7.4 says %v", after, v.Members, v.IDs, want)
		}
		shields := oracle.Shields(rel, attrs)
		var unshielded []int
		for k, i := range oracle.Buffer(rel, attrs) { // v.IDs[k] is alive[i]
			want := window.NoShield
			if j := shields[i]; j >= 0 {
				want = alive[j].ID
			}
			if v.Shields[k] != want {
				s.t.Fatalf("after %s: buffer of %v shields %d with %d, its youngest alive dominator is %d",
					after, v.Members, v.IDs[k], v.Shields[k], want)
			}
			if want == window.NoShield {
				unshielded = append(unshielded, v.IDs[k])
			}
		}
		for k, id := range v.IDs {
			o := s.objs[id]
			want := slices.ContainsFunc(v.IDs[k+1:], func(y int) bool { return slices.Equal(s.objs[y].Attrs, o.Attrs) })
			if v.Younger[k] != want {
				s.t.Fatalf("after %s: buffer of %v says %v for a younger twin of %d, want %v", after, v.Members, v.Younger[k], id, want)
			}
		}
		if got := fixtures.Sorted(v.Frontier); !reflect.DeepEqual(got, fixtures.Sorted(unshielded)) {
			s.t.Fatalf("after %s: frontier of %v is %v, the entries without a shield are %v", after, v.Members, got, unshielded)
		}
		if v.TableErr != nil {
			s.t.Fatalf("after %s: member table of %v: %v", after, v.Members, v.TableErr)
		}
		inFilter := map[int]bool{}
		for _, id := range v.Frontier {
			inFilter[id] = true
		}
		for _, c := range v.Members {
			got := fixtures.Sorted(s.eng.UserFrontier(c))
			if s.exact {
				if want := fixtures.Frontier(fixtures.Asserted(s.users[c]), alive); !reflect.DeepEqual(got, want) {
					s.t.Fatalf("after %s: frontier of user %d is %v, Def. 7.1 says %v", after, c, got, want)
				}
				continue
			}
			for _, id := range got {
				if !inFilter[id] {
					s.t.Fatalf("after %s: user %d holds %d, which is outside the filter frontier %v", after, c, id, v.Frontier)
				}
			}
		}
	}
	if want := len(s.aliveUsers()); served != want {
		s.t.Fatalf("after %s: the buffers serve %d users, %d are alive", after, served, want)
	}
}

// roundTrip replaces the engine by one of another shard count restored
// from its captured state: the shields are not part of a snapshot and
// have to come back exactly.
func (s *shieldWorld) roundTrip(workers int) {
	st := core.NewEngineState(len(s.users), len(s.clusters))
	s.eng.CaptureState(st)
	s.build(workers)
	if err := s.eng.RestoreState(st); err != nil {
		s.t.Fatal(err)
	}
}

// After every step of a seeded history of arrivals, removals, preference
// updates and retractions, users joining and leaving — and across
// capture/restore into another shard count — the window engines hold the
// shield invariant and serve the definitional frontiers, and every
// cluster's member table is its members' relations and C_o. The
// clustered histories must reach each lifecycle case a stale table could
// hide in.
func TestShieldInvariantThroughLifecycleHistories(t *testing.T) {
	engines := []struct {
		name      string
		clustered bool
		commonFn  core.CommonFn
	}{
		{"BaselineSW", false, pref.Common},
		{"FilterThenVerifySW", true, pref.Common},
		{"FilterThenVerifyApproxSW", true, func(ps []*pref.Profile) *pref.Profile { return approx.Profile(ps, 6, 0.4) }},
	}
	for _, e := range engines {
		cases := map[string]int{}
		for _, workers := range []int{1, 3} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("%s/workers=%d/seed=%d", e.name, workers, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(seed))
					s := &shieldWorld{t: t, r: r, w: 4 + r.Intn(12), removed: map[int]bool{}, cases: cases, commonFn: e.commonFn, exact: e.name != "FilterThenVerifyApproxSW"}
					for d := 0; d < 2+r.Intn(2); d++ {
						dom := order.NewDomain(string(rune('a' + d)))
						for v := 0; v < shieldDomSize; v++ {
							dom.Intern(string(rune('A' + v)))
						}
						s.doms = append(s.doms, dom)
					}
					for c := 0; c < 6; c++ {
						s.users = append(s.users, s.randomProfile(4))
						s.active = append(s.active, true)
					}
					if e.clustered {
						s.clusters = [][]int{{0, 1, 2}, {3, 4}, {5}}
					}
					s.build(workers)
					for i := 0; i < 220; i++ {
						s.check(s.step())
						if i%37 == 36 {
							workers = 4 - workers // 1 <-> 3
							s.roundTrip(workers)
							s.check("restore")
						}
					}
				})
			}
		}
		if !e.clustered {
			continue
		}
		for _, c := range []string{
			"ApplyPreference leaving ≻_U equal",
			"ApplyPreference ordering a value interned late",
			"ActivateUser into a live cluster",
			"ActivateUser into a dormant cluster",
			"ActivateUser founding a cluster",
			"RemoveUser emptying a cluster",
		} {
			if cases[c] == 0 {
				t.Errorf("%s: no history reached %q", e.name, c)
			}
		}
	}
}
