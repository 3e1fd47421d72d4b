package pref_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// unionCell is a union table's cell from its definition: the OR of the
// members' Rel(x, y); 0 where the table built over n values does not
// reach, since no member orders a value interned after the build; both
// bits — no constraint — on a domain that got no table (n < 0).
func unionCell(members []*pref.Profile, d, x, y, n int) uint8 {
	switch {
	case n < 0:
		return order.RelLeft | order.RelRight
	case x >= n || y >= n:
		return 0
	}
	var cell uint8
	for _, p := range members {
		cell |= p.Relation(d).Rel(x, y)
	}
	return cell
}

// maskOfCell reads cell (x, y) of attribute d's table through the probe:
// the mask of two objects that differ on d alone.
func maskOfCell(u *pref.Union, dims, d, x, y int) uint8 {
	a, b := object.Object{Attrs: make([]int32, dims)}, object.Object{Attrs: make([]int32, dims)}
	a.Attrs[d], b.Attrs[d] = int32(x), int32(y)
	var up pref.UnionProbe
	u.Prepare(a, &up)
	return up.Mask(b)
}

// checkUnion screens every ordered pair of objs through u, built over the
// members when each domain held sizes[d] values, and holds the mask to its
// definition (the AND of unionCell over the attributes the pair differs
// on) and to what the screen promises each member: a mask without RelLeft
// rules out a ≻ b, one without RelRight b ≻ a, 0 both (and Identical).
func checkUnion(t *testing.T, when string, u *pref.Union, members []*pref.Profile, sizes []int, objs []object.Object) {
	t.Helper()
	for _, a := range objs {
		var up pref.UnionProbe
		u.Prepare(a, &up)
		for _, b := range objs {
			want := order.RelLeft | order.RelRight
			for d := range sizes {
				if x, y := int(a.Attrs[d]), int(b.Attrs[d]); x != y {
					want &= unionCell(members, d, x, y, sizes[d])
				}
			}
			m := up.Mask(b)
			if m != want {
				t.Fatalf("%s: Mask(%v, %v) = %d, the union's cells give %d", when, a.Attrs, b.Attrs, m, want)
			}
			for i, p := range members {
				switch got := p.Compare(a, b); {
				case m == 0 && got != pref.Incomparable,
					m&order.RelLeft == 0 && got == pref.Left,
					m&order.RelRight == 0 && got == pref.Right:
					t.Fatalf("%s: mask %d for (%v, %v) rules out what member %d says: %v", when, m, a.Attrs, b.Attrs, i, got)
				case got == pref.Identical && m != order.RelLeft|order.RelRight:
					t.Fatalf("%s: identical pair %v got mask %d", when, a.Attrs, m)
				}
			}
		}
	}
}

// unionScenario draws a few member relations over random domains, builds
// their union, and checks it before and after values are interned behind
// its back. Widths beyond the probe's inline rows and domains beyond the
// table limit are both in range.
func unionScenario(t *testing.T, seed int64, dims, domSize, members, edges int) {
	r := rand.New(rand.NewSource(seed))
	doms := make([]*order.Domain, dims)
	sizes := make([]int, dims)
	for d := range doms {
		doms[d] = order.NewDomain(fmt.Sprintf("a%d", d))
		for v := 0; v < domSize; v++ {
			doms[d].Intern(fmt.Sprintf("v%d", v))
		}
		if sizes[d] = domSize; domSize > order.TableMaxN {
			sizes[d] = -1 // no table: no cell constrains
		}
	}
	ps := make([]*pref.Profile, members)
	for i := range ps {
		ps[i] = pref.NewProfile(doms)
		for e := 0; e < edges; e++ {
			ps[i].Relation(r.Intn(dims)).Add(r.Intn(domSize), r.Intn(domSize)) // a cycle is refused; fine
		}
	}
	var u pref.Union
	u.Reset(doms)
	for _, p := range ps {
		u.Include(p)
	}
	for d := range doms {
		for x := 0; x < min(domSize, 40); x++ {
			for y := 0; y < min(domSize, 40); y++ {
				if got, want := maskOfCell(&u, dims, d, x, y), unionCell(ps, d, x, y, sizes[d]); x != y && got != want {
					t.Fatalf("cell (%d, %d) on %d is %d, the members' OR is %d", x, y, d, got, want)
				}
			}
		}
	}
	objs := randomObjects(r, doms, 12)
	twin := objs[0]
	twin.ID = len(objs)
	objs = append(objs, twin)
	checkUnion(t, "built", &u, ps, sizes, objs)

	// Values interned after the build: the tables do not reach them, and
	// no member orders them, so a pair that differs on one of them is
	// incomparable for every member — unless the domain has no table.
	for _, dom := range doms {
		dom.Intern("late-1")
		dom.Intern("late-2")
	}
	objs = append(objs, randomObjects(r, doms, 12)...)
	checkUnion(t, "values interned after the build", &u, ps, sizes, objs)
	late := object.Object{ID: len(objs), Attrs: append([]int32(nil), twin.Attrs...)}
	late.Attrs[0] = int32(doms[0].Size() - 1)
	var up pref.UnionProbe
	u.Prepare(twin, &up)
	want := uint8(0)
	if sizes[0] < 0 {
		want = order.RelLeft | order.RelRight
	}
	if m := up.Mask(late); m != want {
		t.Fatalf("a pair differing only on a late value got mask %d, want %d", m, want)
	}
}

func TestUnionScreen(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		dims, domSize, members, edges int
	}{
		{"one member", 3, 6, 1, 10},
		{"a cluster", 4, 8, 5, 12},
		{"no preferences", 2, 5, 3, 0},
		{"dense", 3, 6, 4, 40},
		{"wider than the inline rows", 9, 4, 3, 8},
		{"domain past the table limit", 2, 1030, 2, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				unionScenario(t, seed, tc.dims, tc.domSize, tc.members, tc.edges)
			}
		})
	}
}

// FuzzUnionScreen lets the fuzzer pick the shape — width, domain size,
// member count and edges per member, folded into ranges that cross the
// inline-row and table limits — and the seed every random draw.
func FuzzUnionScreen(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(6), uint8(1), uint8(10))
	f.Add(int64(2), uint8(4), uint16(8), uint8(5), uint8(12))
	f.Add(int64(3), uint8(9), uint16(4), uint8(3), uint8(8))
	f.Add(int64(4), uint8(2), uint16(1030), uint8(2), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, dims uint8, domSize uint16, members, edges uint8) {
		unionScenario(t, seed, 1+int(dims)%10, 1+int(domSize)%1100, 1+int(members)%6, int(edges)%64)
	})
}

// A late value reads as unordered only because nothing orders it before
// the next Reset; Include refuses a relation that does, rather than leave
// a cell that would screen out a member's dominance.
func TestUnionIncludeRefusesLateOrderedValues(t *testing.T) {
	dom := order.NewDomain("a")
	dom.Intern("x")
	dom.Intern("y")
	p := pref.NewProfile([]*order.Domain{dom})
	var u pref.Union
	u.Reset(p.Domains())
	if err := p.Relation(0).Add(dom.Intern("late"), 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Include took a relation ordering a value interned after Reset")
		}
	}()
	u.Include(p)
}

// A union rebuilt over domains that did not grow reuses its tables: the
// window engines rebuild one on every preference update of a member.
func TestUnionRebuildInPlace(t *testing.T) {
	p, _ := wideWorld()
	q := pref.NewProfile(p.Domains())
	var u pref.Union
	rebuild := func() {
		u.Reset(p.Domains())
		u.Include(p)
		u.Include(q)
	}
	rebuild()
	if got := testing.AllocsPerRun(20, rebuild); got != 0 {
		t.Errorf("rebuilding a union in place: %.0f allocs, want 0", got)
	}
}
