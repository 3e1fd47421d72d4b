package order

import (
	"math/rand"
	"testing"
)

// benchRelations returns two random relations over one 60-value domain,
// the size of the movie workload's actor attribute.
func benchRelations() (*Relation, *Relation) {
	r := rand.New(rand.NewSource(7))
	d := NewDomain("bench")
	return randomRelation(r, d, 60, 120), randomRelation(r, d, 60, 120)
}

// BenchmarkCloneIntersect measures one step of a common relation: a Clone
// narrowed in place by a second member (five allocations: the relation,
// its slab's three and its asserted base).
func BenchmarkCloneIntersect(b *testing.B) {
	r, o := benchRelations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Clone().IntersectWith(o)
	}
}

// BenchmarkRemove measures retracting one assertion (a fresh slab and the
// closure rebuilt from the kept assertions) and asserting it again.
func BenchmarkRemove(b *testing.B) {
	r, _ := benchRelations()
	base := r.Asserted()[len(r.Asserted())/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Remove(base.Better, base.Worse); err != nil {
			b.Fatal(err)
		}
		if err := r.Add(base.Better, base.Worse); err != nil {
			b.Fatal(err)
		}
	}
}
