package window_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// twinOf returns a copy of x's tuple under id.
func twinOf(x object.Object, id int) object.Object {
	return object.Object{ID: id, Attrs: slices.Clone(x.Attrs)}
}

// heldEntry returns the oldest P_U entry of cluster 0 that a member holds
// while another held P_U entry is not its twin, or false.
func heldEntry(eng *window.Sourced, objs []object.Object) (object.Object, bool) {
	held := func(id int) bool { return len(eng.Targets(id)) > 0 }
	fu := fixtures.Sorted(eng.ClusterFrontier(0))
	for _, id := range fu {
		if !held(id) {
			continue
		}
		other := slices.ContainsFunc(fu, func(y int) bool { return held(y) && !slices.Equal(objs[y].Attrs, objs[id].Attrs) })
		if other {
			return objs[id], true
		}
	}
	return object.Object{}, false
}

// twinHistory is a one-cluster exact engine beside Alg. 4 over clones of
// the same users, fed the same arrivals and removals.
type twinHistory struct {
	t        *testing.T
	users    []int
	eng, ref *window.Sourced
	ctr      *stats.Counters
	objs     []object.Object // every arrival, by id
}

// twinW is the histories' window; their first twinPrefix arrivals leave
// it full enough for a held P_U entry and expire nothing.
const twinW, twinPrefix = 48, 40

func newTwinHistory(t *testing.T, approx bool) *twinHistory {
	const w = twinW
	users, clusters, objs := clusteredWorld(rand.New(rand.NewSource(5)), 1, 4, 3, 6, twinPrefix)
	h := &twinHistory{t: t, ctr: &stats.Counters{}, users: clusters[0].Members}
	if approx {
		h.eng = window.NewSourcedFilterThenVerifyApproxSW(users, clusters, w, h.ctr)
	} else {
		h.eng = window.NewSourcedFilterThenVerifySW(users, clusters, w, h.ctr)
	}
	clones := make([]*pref.Profile, len(users))
	for c, p := range users {
		clones[c] = p.Clone()
	}
	h.ref = window.NewSourcedBaselineSW(clones, w, nil)
	for _, o := range objs {
		h.process(o)
	}
	return h
}

// process feeds o to both engines and returns the verify comparisons it
// cost the engine under test.
func (h *twinHistory) process(o object.Object) uint64 {
	h.t.Helper()
	before := h.ctr.VerifyComparisons
	h.objs = append(h.objs, o)
	if got, want := h.eng.Process(o), h.ref.Process(o); !slices.Equal(got, want) {
		h.t.Fatalf("object %d goes to %v, Alg. 4 delivers it to %v", o.ID, got, want)
	}
	h.check()
	return h.ctr.VerifyComparisons - before
}

// remove takes o out of both engines and returns the verify comparisons.
func (h *twinHistory) remove(o object.Object) uint64 {
	h.t.Helper()
	before := h.ctr.VerifyComparisons
	h.eng.RemoveObject(o)
	h.ref.RemoveObject(o)
	h.check()
	return h.ctr.VerifyComparisons - before
}

// check holds every P_c and every C_o to Alg. 4's.
func (h *twinHistory) check() {
	h.t.Helper()
	for _, c := range h.users {
		if got, want := fixtures.Sorted(h.eng.UserFrontier(c)), fixtures.Sorted(h.ref.UserFrontier(c)); !slices.Equal(got, want) {
			h.t.Fatalf("P_c of user %d is %v, Alg. 4's %v", c, got, want)
		}
	}
	for _, o := range h.objs {
		if got, want := h.eng.Targets(o.ID), h.ref.Targets(o.ID); !slices.Equal(got, want) {
			h.t.Fatalf("C_o of %d is %v, Alg. 4's %v", o.ID, got, want)
		}
	}
}

// On the exact engine an arrival whose twin is in P_U, and a departure —
// by removal or by expiry — that leaves a twin in P_U, make no verify
// comparison, and the frontiers and C_o stay Alg. 4's. x is a held P_U
// entry beside one that is not its twin, so AdmitToMembers would probe;
// its twins arrive, the youngest is removed before x expires, and twins
// keep arriving until one of them retires x. Nothing else expires until
// the twins have filled the window.
func TestTwinArrivalAndDepartureMakeNoVerifyComparison(t *testing.T) {
	h := newTwinHistory(t, false)
	x, ok := heldEntry(h.eng, h.objs)
	if !ok {
		t.Fatal("no member holds a P_U entry beside one that is not its twin")
	}
	next := func() object.Object { return twinOf(x, len(h.objs)) }
	if n := h.process(next()); n != 0 {
		t.Errorf("a twin arrival made %d verify comparisons", n)
	}
	if got, want := h.eng.Targets(len(h.objs)-1), h.eng.Targets(x.ID); !slices.Equal(got, want) {
		t.Errorf("the twin arrival joined %v, its twin is held by %v", got, want)
	}
	if n := h.remove(h.objs[len(h.objs)-1]); n != 0 {
		t.Errorf("removing the younger twin made %d verify comparisons", n)
	}
	if n := h.process(next()); n != 0 {
		t.Errorf("a twin arrival after the removal made %d verify comparisons", n)
	}
	for len(h.objs) < x.ID+twinW { // the objects older than x retire, at a cost
		h.process(next())
	}
	if n := h.process(next()); n != 0 {
		t.Errorf("the twin arrival retiring x made %d verify comparisons", n)
	}
	if held := h.eng.Targets(len(h.objs) - 1); len(held) == 0 || h.eng.Targets(x.ID) != nil {
		t.Fatalf("x's last twin is held by %v and x, retired, by %v", held, h.eng.Targets(x.ID))
	}
}

// On the approximate engine a twin arrival still scans P_U: P̂_c is what
// the procedure leaves, and the twin's holders need not be its own.
func TestApproxTwinArrivalScans(t *testing.T) {
	h := newTwinHistory(t, true)
	x, ok := heldEntry(h.eng, h.objs)
	if !ok {
		t.Fatal("no member holds a P_U entry beside one that is not its twin")
	}
	if n := h.process(twinOf(x, len(h.objs))); n == 0 {
		t.Error("a twin arrival on FilterThenVerifyApproxSW made no verify comparison")
	}
}

// The twin path allocates nothing: a departure that leaves a twin in P_U
// and the twin arrival that undoes it, over twinClusters, whose second
// cluster keeps every C_o set alive.
func TestTwinPathDoesNotAllocate(t *testing.T) {
	users, clusters, objs := twinClusters(8)
	eng := window.NewFilterThenVerifySW(users, clusters, 64, nil)
	for _, o := range objs[:512] {
		eng.Process(o)
	}
	var x object.Object
	for _, o := range eng.ClusterFronts[0].Objects() {
		if len(eng.Targets(o.ID)) >= 2 {
			x = o
			break
		}
	}
	if x.Attrs == nil {
		t.Fatal("no P_U entry is held")
	}
	y := twinOf(x, 512)
	eng.Process(y)
	if got, want := eng.Targets(y.ID), eng.Targets(x.ID); len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("the twin arrival is held by %v, its twin by %v", got, want)
	}
	fu := eng.ClusterFronts[0]
	var co []int
	cycle := func() {
		fu.Remove(y.ID)
		eng.MendMembers(0, y, true)
		fu.Add(y)
		co = eng.AdmitTwin(0, y, x.ID, co[:0])
	}
	cycle() // warm the scratch
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a twin departure and its undoing allocate %.1f times", allocs)
	}
	if got, want := eng.Targets(y.ID), eng.Targets(x.ID); !slices.Equal(got, want) {
		t.Fatalf("after the cycles the twin is held by %v, its twin by %v", got, want)
	}
}
