package pref_test

import (
	"math/rand"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
)

// BenchmarkCompare measures the dominance kernel on the paper's laptop
// example — the innermost operation of every engine.
func BenchmarkCompare(b *testing.B) {
	l := fixtures.NewLaptops()
	objs := l.Objects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := objs[i%len(objs)]
		c := objs[(i*7+3)%len(objs)]
		_ = l.C1.Compare(a, c)
	}
}

// wideWorld builds a 4-attribute profile over 60-value domains with
// thousands of closure tuples, and 256 random objects.
func wideWorld() (*pref.Profile, []object.Object) {
	r := rand.New(rand.NewSource(1))
	doms := make([]*order.Domain, 4)
	for d := range doms {
		doms[d] = order.NewDomain(string(rune('a' + d)))
		for v := 0; v < 60; v++ {
			doms[d].Intern(string(rune('A'+v%26)) + string(rune('a'+v/26)))
		}
	}
	p := pref.NewProfile(doms)
	for d := 0; d < 4; d++ {
		for e := 0; e < 300; e++ {
			p.Relation(d).Add(r.Intn(60), r.Intn(60))
		}
	}
	objs := make([]object.Object, 256)
	for i := range objs {
		attrs := make([]int32, 4)
		for d := range attrs {
			attrs[d] = int32(r.Intn(60))
		}
		objs[i] = object.Object{ID: i, Attrs: attrs}
	}
	return p, objs
}

// BenchmarkCompareWide measures one-shot dominance over wider synthetic
// relations.
func BenchmarkCompareWide(b *testing.B) {
	p, objs := wideWorld()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Compare(objs[i%256], objs[(i*11+5)%256])
	}
}

// BenchmarkProbeCompare measures the engines' scan shape on the same
// world: one Prepare per fixed object, then a 64-object scan. ns/op is
// per comparison.
func BenchmarkProbeCompare(b *testing.B) {
	p, objs := wideWorld()
	var sink pref.Cmp
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		var pr pref.Probe
		p.Prepare(objs[(i/64)%256], &pr)
		for j := 0; j < 64; j++ {
			sink += pr.Compare(objs[(i+j*11+5)%256])
		}
	}
	_ = sink
}

// BenchmarkCommon measures common-preference computation (Def. 4.1), the
// per-merge cost of clustering.
func BenchmarkCommon(b *testing.B) {
	l := fixtures.NewLaptops()
	users := []*pref.Profile{l.C1, l.C2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pref.Common(users)
	}
}

// BenchmarkCommonCluster measures Common over an 8-member cluster on the
// movie workload's domains: one Clone, then seven in-place intersections
// per attribute.
func BenchmarkCommonCluster(b *testing.B) {
	users := movieMembers(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pref.Common(users)
	}
}
