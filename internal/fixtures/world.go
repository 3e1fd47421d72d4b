package fixtures

import (
	"math/rand"
	"sort"

	"repro/internal/object"
	"repro/internal/oracle"
	"repro/internal/order"
	"repro/internal/pref"
)

// RandomWorld builds nUsers random profiles over dims small domains, edges
// tries per attribute, and nObjs random objects; the same r, the same world.
func RandomWorld(r *rand.Rand, nUsers, dims, domSize, nObjs, edges int) ([]*pref.Profile, []object.Object) {
	doms := make([]*order.Domain, dims)
	for d := range doms {
		doms[d] = order.NewDomain(string(rune('a' + d)))
		for v := 0; v < domSize; v++ {
			doms[d].Intern(string(rune('A' + v)))
		}
	}
	users := make([]*pref.Profile, nUsers)
	for u := range users {
		p := pref.NewProfile(doms)
		for d := 0; d < dims; d++ {
			for e := 0; e < edges; e++ {
				p.Relation(d).Add(r.Intn(domSize), r.Intn(domSize)) // rejections fine
			}
		}
		users[u] = p
	}
	objs := make([]object.Object, nObjs)
	for i := range objs {
		attrs := make([]int32, dims)
		for d := range attrs {
			attrs[d] = int32(r.Intn(domSize))
		}
		objs[i] = object.Object{ID: i, Attrs: attrs}
	}
	return users, objs
}

// Feed hands objs to an engine's Process one by one.
func Feed(eng interface{ Process(object.Object) []int }, objs []object.Object) {
	for _, o := range objs {
		eng.Process(o)
	}
}

// PaperIDs converts 1-based paper object numbers to sorted 0-based ids.
func PaperIDs(ns ...int) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n - 1
	}
	sort.Ints(out)
	return out
}

// Sorted returns a sorted copy of xs, empty rather than nil.
func Sorted(xs []int) []int {
	out := append([]int{}, xs...)
	sort.Ints(out)
	return out
}

// Asserted returns p's asserted tuples as the oracle reads a profile: the
// user's own preferences, not the closure the engines keep.
func Asserted(p *pref.Profile) oracle.Prefs[int32] { return prefs(p, (*order.Relation).Asserted) }

// Closed returns every tuple of p's relations, for relations that assert
// nothing: Sec. 6's approximate ≻̂_U (its output) and generated orders.
func Closed(p *pref.Profile) oracle.Prefs[int32] { return prefs(p, (*order.Relation).Tuples) }

func prefs(p *pref.Profile, tuples func(*order.Relation) []order.Tuple) oracle.Prefs[int32] {
	out := make(oracle.Prefs[int32], p.Dims())
	for d := range out {
		for _, tu := range tuples(p.Relation(d)) {
			out[d] = append(out[d], [2]int32{int32(tu.Better), int32(tu.Worse)})
		}
	}
	return out
}

// Attrs returns the objects' attribute values, in order.
func Attrs(objs []object.Object) [][]int32 {
	out := make([][]int32, len(objs))
	for i, o := range objs {
		out[i] = o.Attrs
	}
	return out
}

// Frontier returns the sorted ids of oracle.Frontier(p, objs).
func Frontier(p oracle.Prefs[int32], objs []object.Object) []int {
	return Sorted(idsAt(objs, oracle.Frontier(p, Attrs(objs))))
}

// Buffer returns the ids of oracle.Buffer(p, objs), in the order of objs.
func Buffer(p oracle.Prefs[int32], objs []object.Object) []int {
	return idsAt(objs, oracle.Buffer(p, Attrs(objs)))
}

func idsAt(objs []object.Object, at []int) []int {
	out := make([]int, len(at))
	for k, i := range at {
		out[k] = objs[i].ID
	}
	return out
}
