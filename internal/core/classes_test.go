package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// checkClasses asserts the table's structural invariants: a power-of-two
// slot table at most half full, every alive class indexed exactly once
// and reachable from its tuple's home without crossing an empty slot,
// every retired class id on the free list and out of the index, and
// every member chain consistent with the id links.
func checkClasses(t *testing.T, tc *TupleClasses) {
	t.Helper()
	n := len(tc.slots)
	if n&(n-1) != 0 {
		t.Fatalf("len(slots) = %d, not a power of two", n)
	}
	if 2*tc.live > n {
		t.Fatalf("%d classes in %d slots: over half full", tc.live, n)
	}
	if n > 0 && tc.shift != uint(64-bits.TrailingZeros(uint(n))) {
		t.Fatalf("shift = %d for %d slots", tc.shift, n)
	}
	used := 0
	for s, v := range tc.slots {
		if v == 0 {
			continue
		}
		used++
		cl := tc.classes[v-1]
		if cl.head == noID {
			t.Fatalf("slot %d indexes retired class %d", s, v-1)
		}
		for p := int(cl.hash >> tc.shift); p != s; p = (p + 1) & (n - 1) {
			if tc.slots[p] == 0 {
				t.Fatalf("class %d unreachable: empty slot %d on its probe path", v-1, p)
			}
		}
		if got := tc.lookup(hashAttrs(cl.attrs), cl.attrs); got != int(v-1) {
			t.Fatalf("lookup of class %d's tuple finds %d", v-1, got)
		}
	}
	if used != tc.live {
		t.Fatalf("%d occupied slots for %d alive classes", used, tc.live)
	}
	if tc.live+len(tc.retired) != len(tc.classes) {
		t.Fatalf("%d alive + %d retired classes, table holds %d", tc.live, len(tc.retired), len(tc.classes))
	}
	for _, ci := range tc.retired {
		if tc.classes[ci].head != noID || tc.classes[ci].attrs != nil {
			t.Fatalf("retired class %d still holds %+v", ci, tc.classes[ci])
		}
	}
	linked := 0
	for ci, cl := range tc.classes {
		last := int32(noID)
		for m := cl.head; m != noID; m = tc.links[m].next {
			if int(tc.links[m].class) != ci+1 {
				t.Fatalf("id %d is chained under class %d but links to %d", m, ci, tc.links[m].class-1)
			}
			if m <= last {
				t.Fatalf("class %d members out of arrival order: %d after %d", ci, m, last)
			}
			last = m
			linked++
		}
		if cl.head != noID && cl.tail != last {
			t.Fatalf("class %d tail = %d, chain ends at %d", ci, cl.tail, last)
		}
	}
	for id, l := range tc.links {
		if l.class != 0 {
			linked--
			if l.next == noID && tc.classes[l.class-1].tail != int32(id) {
				t.Fatalf("id %d ends a chain but is not its class's tail", id)
			}
		}
	}
	if linked != 0 {
		t.Fatalf("chains and id links disagree by %d ids", linked)
	}
}

// TestTupleClassesAgainstModel drives Resolve and Leave with a random
// history over a small tuple space and compares the table with a map from
// tuple to member ids after every step.
func TestTupleClassesAgainstModel(t *testing.T) {
	for _, space := range []int{3, 40, 2000} {
		t.Run(fmt.Sprintf("tuples=%d", space), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(space)))
			var tc TupleClasses
			tc.enable()
			model := map[[2]int32][]int{} // tuple -> alive ids in arrival order
			tupleOf := map[int][2]int32{}
			var alive []object.Object
			peak, next := 0, 0
			for step := 0; step < 6000; step++ {
				if len(alive) == 0 || r.Intn(100) < 55+space/100 {
					k := [2]int32{int32(r.Intn(space)), int32(r.Intn(2))}
					if space > 1000 {
						k[1] = int32(r.Intn(space)) // nearly all distinct
					}
					o := object.Object{ID: next, Attrs: []int32{k[0], k[1]}}
					next++
					rep, twin := tc.Resolve(o)
					if twin != (len(model[k]) > 0) {
						t.Fatalf("step %d: Resolve(%v) twin = %v with %d alive copies", step, o, twin, len(model[k]))
					}
					if !reflect.DeepEqual(rep.Attrs, o.Attrs) {
						t.Fatalf("step %d: representative %v for %v", step, rep, o)
					}
					if ids := model[k]; len(ids) > 0 {
						if ci, _ := tc.classOf(ids[0]); ci != rep.ID {
							t.Fatalf("step %d: twin joined class %d, its copies are in %d", step, rep.ID, ci)
						}
					}
					model[k] = append(model[k], o.ID)
					tupleOf[o.ID] = k
					alive = append(alive, o)
				} else {
					i := r.Intn(len(alive))
					o := alive[i]
					alive = append(alive[:i], alive[i+1:]...)
					k := tupleOf[o.ID]
					ids := model[k]
					for j, id := range ids {
						if id == o.ID {
							ids = append(ids[:j:j], ids[j+1:]...)
							break
						}
					}
					model[k] = ids
					rep, last := tc.Leave(o)
					if last != (len(ids) == 0) || !reflect.DeepEqual(rep.Attrs, o.Attrs) {
						t.Fatalf("step %d: Leave(%v) = %v, %v with %d copies left", step, o, rep, last, len(ids))
					}
					if _, ok := tc.classOf(o.ID); ok {
						t.Fatalf("step %d: id %d still has a class after Leave", step, o.ID)
					}
					if again, ok := tc.Leave(o); ok || again.ID != o.ID {
						t.Fatalf("step %d: a second Leave(%v) = %v, %v", step, o, again, ok)
					}
				}
				live := 0
				for _, ids := range model {
					if len(ids) > 0 {
						live++
					}
				}
				peak = max(peak, live)
				if tc.live != live || len(tc.classes) > peak {
					t.Fatalf("step %d: %d alive classes in a table of %d, model has %d (peak %d)", step, tc.live, len(tc.classes), live, peak)
				}
				if step%97 == 0 || step > 5990 {
					checkClasses(t, &tc)
					// Collapse: one representative per class, by oldest member.
					var want [][2]int32
					seen := map[[2]int32]bool{}
					for _, o := range alive {
						if k := tupleOf[o.ID]; model[k][0] == o.ID && !seen[k] {
							seen[k] = true
							want = append(want, k)
						}
					}
					reps := tc.Collapse(slices.Values(alive))
					if len(reps) != len(want) {
						t.Fatalf("step %d: Collapse gave %d representatives for %d classes", step, len(reps), len(want))
					}
					f := NewFrontier()
					for i, rep := range reps {
						if k := [2]int32{rep.Attrs[0], rep.Attrs[1]}; k != want[i] {
							t.Fatalf("step %d: representative %d is %v, want %v", step, i, k, want[i])
						}
						f.Add(rep)
					}
					// Expansion: the ids a frontier of every class stands for.
					var wantIDs []int
					for _, k := range want {
						wantIDs = append(wantIDs, model[k]...)
					}
					if got := tc.AppendMemberIDs(nil, f); !reflect.DeepEqual(got, wantIDs) {
						t.Fatalf("step %d: members %v, want %v", step, got, wantIDs)
					}
					for i, o := range tc.MemberObjects(f) {
						if o.ID != wantIDs[i] || tupleOf[o.ID] != [2]int32{o.Attrs[0], o.Attrs[1]} {
							t.Fatalf("step %d: member object %v at %d, want id %d", step, o, i, wantIDs[i])
						}
					}
				}
			}
		})
	}
}

// TestTupleClassesOffIsTransparent pins the zero value the windowed and
// approximate engines run on: every object is its own class under its own
// id and nothing is stored.
func TestTupleClassesOffIsTransparent(t *testing.T) {
	var tc TupleClasses
	a := object.Object{ID: 7, Attrs: []int32{1, 2}}
	b := object.Object{ID: 9, Attrs: []int32{1, 2}}
	for _, o := range []object.Object{a, b} {
		if rep, twin := tc.Resolve(o); twin || rep.ID != o.ID {
			t.Fatalf("Resolve(%v) = %v, %v with the table off", o, rep, twin)
		}
	}
	if rep, last := tc.Leave(a); !last || rep.ID != a.ID {
		t.Fatalf("Leave = %v, %v with the table off", rep, last)
	}
	alive := []object.Object{a, b}
	if got := tc.Collapse(slices.Values(alive)); !reflect.DeepEqual(got, alive) {
		t.Fatalf("Collapse gave %v with the table off, want every object as it is", got)
	}
	if tc.links != nil || tc.classes != nil || tc.slots != nil {
		t.Fatalf("the table stored something while off: %+v", tc)
	}
}

// twinWorld builds a one-shard FilterThenVerify the way Sharded drives
// it (scratch enabled) over 2 clusters of 4 users, and a stream of n
// objects over `tuples` attribute tuples.
func twinWorld(n, tuples int) (*FilterThenVerify, []object.Object) {
	const dims, domSize = 3, 8
	r := rand.New(rand.NewSource(5))
	doms := make([]*order.Domain, dims)
	for d := range doms {
		doms[d] = order.NewDomain(string(rune('a' + d)))
		for v := 0; v < domSize; v++ {
			doms[d].Intern(string(rune('A' + v)))
		}
	}
	var users []*pref.Profile
	var clusters []Cluster
	for g := 0; g < 2; g++ {
		var members []int
		var profs []*pref.Profile
		for m := 0; m < 4; m++ {
			p := pref.NewProfile(doms)
			for d := 0; d < dims; d++ {
				for e := 0; e < 5; e++ {
					p.Relation(d).Add(r.Intn(domSize), r.Intn(domSize)) // rejections fine
				}
			}
			members = append(members, len(users))
			users = append(users, p)
			profs = append(profs, p)
		}
		clusters = append(clusters, Cluster{Members: members, Common: pref.Common(profs)})
	}
	eng := NewFilterThenVerify(users, clusters, nil)
	eng.EnableScratch()
	objs := make([]object.Object, n)
	for i := range objs {
		code := i % tuples
		objs[i] = object.Object{ID: i, Attrs: []int32{int32(code % domSize), int32(code / domSize % domSize), int32(code / domSize / domSize)}}
	}
	return eng, objs
}

// TestTwinProcessDoesNotAllocate: an arrival that repeats an alive tuple
// costs a hash, a probe, an id link and a copy of C_class into the shard's
// scratch — and not one allocation, which is what keeps allocs_per_obj
// where it was on a stream that is three quarters twins.
func TestTwinProcessDoesNotAllocate(t *testing.T) {
	const tuples, runs = 200, 2000
	eng, objs := twinWorld(tuples+runs+1, tuples)
	fixtures.Feed(eng, objs[:tuples])
	held := 0
	next := tuples
	allocs := testing.AllocsPerRun(runs, func() {
		held += len(eng.Process(objs[next]))
		next++
	})
	if allocs != 0 {
		t.Errorf("a twin's Process allocates %.0f times, want 0", allocs)
	}
	if held == 0 {
		t.Fatal("no twin was delivered to anyone: the run checked nothing")
	}
}

// TestTargetTrackerReleasesEmptiedSets: a C_o whose last holder left gives
// its slot up (it used to stay allocated for good), and a later member
// under the same key starts from an empty set.
func TestTargetTrackerReleasesEmptiedSets(t *testing.T) {
	var tr TargetTracker
	tr.AddTarget(3, 70)
	tr.AddTarget(3, 2)
	tr.RemoveTarget(3, 70)
	if tr.sets[3] == nil || !tr.Holds(3, 2) {
		t.Fatal("slot released while a holder remained")
	}
	tr.RemoveTarget(3, 2)
	if tr.sets[3] != nil {
		t.Fatalf("slot not released after the last holder left: %v", tr.sets[3])
	}
	if got := tr.AppendHolders(nil, 3); got != nil {
		t.Fatalf("holders of an emptied member: %v", got)
	}
	tr.AddTarget(3, 1)
	if got := tr.AppendHolders(nil, 3); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("a released key came back dirty: %v", got)
	}
	tr.DropTargets(3)
	if tr.sets[3] != nil || tr.Holds(3, 1) {
		t.Fatal("DropTargets left the slot behind")
	}
}

// TestTargetTrackerExpire runs the windowed engines' use of the tracker:
// keys arrive in order, each is held for a window of w arrivals, and the
// key leaving the window expires with everything below it. The slice must
// span at most 2w keys, answer every live key as a plain slice would, and
// reuse its backing array once it has grown.
func TestTargetTrackerExpire(t *testing.T) {
	const w = 16
	var tr TargetTracker
	rng := rand.New(rand.NewSource(1))
	held := map[int]int{} // live key -> user
	steady := -1          // the backing array's capacity once the window is full
	for key := 0; key < 50*w; key++ {
		if out := key - w; out >= 0 {
			delete(held, out)
			tr.Expire(out)
		}
		if rng.Intn(3) > 0 { // some arrivals are held by nobody
			user := rng.Intn(64)
			tr.AddTarget(key, user)
			held[key] = user
		}
		if tr.Span() > 2*w {
			t.Fatalf("after key %d the tracker spans %d keys for a window of %d", key, tr.Span(), w)
		}
		for k := key - 2*w; k <= key; k++ {
			user, ok := held[k]
			if got := tr.AppendHolders(nil, k); ok != (len(got) == 1) || ok && got[0] != user {
				t.Fatalf("after key %d: holders of %d are %v, want %v (held %v)", key, k, got, user, ok)
			}
		}
		if key == 4*w {
			steady = cap(tr.sets)
		} else if key > 4*w && cap(tr.sets) != steady {
			t.Fatalf("after key %d the tracker's capacity moved %d -> %d in a steady window", key, steady, cap(tr.sets))
		}
	}
	// Expiring past every key empties the tracker and starts it there.
	tr.Expire(1 << 20)
	if tr.Span() != 0 || tr.Holds(50*w-1, held[50*w-1]) {
		t.Errorf("expiring past every key left span %d", tr.Span())
	}
	tr.AddTarget(1<<20+1, 5)
	if tr.Span() != 1 || !tr.Holds(1<<20+1, 5) {
		t.Errorf("a key after a jump: span %d", tr.Span())
	}
}
