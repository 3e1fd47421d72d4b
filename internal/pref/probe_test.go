package pref_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/oracle"
	"repro/internal/order"
	"repro/internal/pref"
)

// asPref reads the oracle's outcome as the kernel's.
var asPref = map[oracle.Cmp]pref.Cmp{
	oracle.Incomparable: pref.Incomparable,
	oracle.Left:         pref.Left,
	oracle.Right:        pref.Right,
	oracle.Identical:    pref.Identical,
}

// checkProbes prepares a probe per object and scans every object with it:
// Probe.Compare, Profile.Compare and the definition, read off p's asserted
// tuples by internal/oracle, must agree on all ordered pairs.
func checkProbes(t *testing.T, when string, p *pref.Profile, objs []object.Object) {
	t.Helper()
	def := oracle.Compare(fixtures.Asserted(p), fixtures.Attrs(objs))
	for i, a := range objs {
		var pr pref.Probe
		p.Prepare(a, &pr)
		for j, b := range objs {
			want := asPref[def[i][j]]
			if got := pr.Compare(b); got != want {
				t.Fatalf("%s: Probe.Compare(%v, %v) = %v, definition says %v", when, a.Attrs, b.Attrs, got, want)
			}
			if got := p.Compare(a, b); got != want {
				t.Fatalf("%s: Profile.Compare(%v, %v) = %v, definition says %v", when, a.Attrs, b.Attrs, got, want)
			}
			if pr.Dominates(b) != (want == pref.Left) || pr.DominatedBy(b) != (want == pref.Right) {
				t.Fatalf("%s: Dominates/DominatedBy disagree with Compare = %v on (%v, %v)", when, want, a.Attrs, b.Attrs)
			}
		}
	}
}

func randomObjects(r *rand.Rand, doms []*order.Domain, n int) []object.Object {
	objs := make([]object.Object, n)
	for i := range objs {
		attrs := make([]int32, len(doms))
		for d, dom := range doms {
			attrs[d] = int32(r.Intn(dom.Size()))
		}
		objs[i] = object.Object{ID: i, Attrs: attrs}
	}
	return objs
}

// probeScenario drives one random profile through the states in which a
// prepared row can be missing, short or out of date: the published table,
// values interned after publication, and relations grown and shrunk
// between two Prepare calls. dims above the probe's inline capacity and
// domSize above the dense table's limit (1024 values) are both in range.
func probeScenario(t *testing.T, seed int64, dims, domSize, edges int) {
	r := rand.New(rand.NewSource(seed))
	doms := make([]*order.Domain, dims)
	for d := range doms {
		doms[d] = order.NewDomain(fmt.Sprintf("a%d", d))
		for v := 0; v < domSize; v++ {
			doms[d].Intern(fmt.Sprintf("v%d", v))
		}
	}
	p := pref.NewProfile(doms)
	var asserted [][3]int
	grow := func(n int) {
		for e := 0; e < n; e++ {
			d, x, y := r.Intn(dims), r.Intn(doms[0].Size()), r.Intn(doms[0].Size())
			if !p.Relation(d).HasAsserted(x, y) && p.Relation(d).Add(x, y) == nil {
				asserted = append(asserted, [3]int{d, x, y})
			}
		}
	}
	grow(edges)
	objs := randomObjects(r, doms, 12)
	checkProbes(t, "published table", p, objs)

	// Values interned after the tables were published: no row reaches
	// them, as fixed operand or as scanned one.
	for _, dom := range doms {
		dom.Intern("late-1")
		dom.Intern("late-2")
	}
	objs = append(objs, randomObjects(r, doms, 12)...)
	checkProbes(t, "values interned after publication", p, objs)

	// Mutations between two Prepare calls drop the tables; the next
	// Prepare must see the new closure, late values included.
	grow(edges/2 + 1)
	checkProbes(t, "after Add", p, objs)
	for i := 0; i < len(asserted); i += 2 {
		a := asserted[i]
		if err := p.Relation(a[0]).Remove(a[1], a[2]); err != nil {
			t.Fatalf("retracting asserted tuple %v: %v", a, err)
		}
	}
	checkProbes(t, "after Remove", p, objs)
}

func TestProbeMatchesDefinition(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		dims, domSize, edges int
	}{
		{"small", 3, 6, 10},
		{"dense", 4, 12, 60},
		{"no preferences", 2, 5, 0},
		{"wider than the inline rows", 9, 4, 12},
		{"domain past the table limit", 2, 1030, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				probeScenario(t, seed, tc.dims, tc.domSize, tc.edges)
			}
		})
	}
}

// FuzzProbeCompare lets the fuzzer pick the shape: the seed drives every
// random choice, the other arguments the profile width, domain size and
// edge count (folded into ranges that cross the inline-row and
// dense-table limits).
func FuzzProbeCompare(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(6), uint8(10))
	f.Add(int64(2), uint8(9), uint16(4), uint8(12))
	f.Add(int64(3), uint8(2), uint16(1030), uint8(40))
	f.Add(int64(4), uint8(1), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, dims uint8, domSize uint16, edges uint8) {
		probeScenario(t, seed, 1+int(dims)%10, 1+int(domSize)%1100, int(edges))
	})
}
