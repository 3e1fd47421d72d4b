package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/stats"
)

// indexWorld is a community whose cluster relations are sparse enough
// that a stream of distinct tuples grows P_U well past indexMinLen, yet
// not empty, so that arrivals are dominated and evict: dims attributes
// over domSize values, users who all assert one shared base of random
// preference tuples and a few of their own, dealt into clusters of three,
// and the alive objects in arrival order (the engines' shared
// alive-object source).
type indexWorld struct {
	r      *rand.Rand
	doms   []*order.Domain
	asked  []*pref.Profile
	groups [][]int
	alive  []object.Object
	seen   map[[4]int32]bool
	nextID int
}

func newIndexWorld(seed int64, users int) *indexWorld {
	const dims, domSize, baseEdges, edges = 4, 10, 9, 3
	w := &indexWorld{r: rand.New(rand.NewSource(seed)), seen: map[[4]int32]bool{}}
	for d := 0; d < dims; d++ {
		dom := order.NewDomain(fmt.Sprint("attr", d))
		for v := 0; v < domSize; v++ {
			dom.Intern(fmt.Sprint("v", v))
		}
		w.doms = append(w.doms, dom)
	}
	base := w.profile(baseEdges)
	for u := 0; u < users; u++ {
		p := w.profile(edges)
		for d := range w.doms {
			for _, tu := range base.Relation(d).Asserted() {
				p.Relation(d).Add(tu.Better, tu.Worse) // rejections fine
			}
		}
		w.asked = append(w.asked, p)
		if u%3 == 0 {
			w.groups = append(w.groups, nil)
		}
		w.groups[len(w.groups)-1] = append(w.groups[len(w.groups)-1], u)
	}
	return w
}

// profile draws a random profile over the world's current domains.
func (w *indexWorld) profile(edges int) *pref.Profile {
	p := pref.NewProfile(w.doms)
	for d, dom := range w.doms {
		for e := 0; e < edges; e++ {
			p.Relation(d).Add(w.r.Intn(dom.Size()), w.r.Intn(dom.Size())) // rejections fine
		}
	}
	return p
}

// next draws an object whose tuple the stream has not carried yet.
func (w *indexWorld) next() object.Object {
	for {
		var key [4]int32
		for d, dom := range w.doms {
			key[d] = int32(w.r.Intn(dom.Size()))
		}
		if w.seen[key] {
			continue
		}
		w.seen[key] = true
		o := object.Object{ID: w.nextID, Attrs: append([]int32(nil), key[:]...)}
		w.nextID++
		return o
	}
}

// source yields the alive objects in arrival order.
func (w *indexWorld) source(yield func(object.Object) bool) { slices.Values(w.alive)(yield) }

// clusters deals users into the world's groups under exact common
// relations.
func (w *indexWorld) clusters(users []*pref.Profile) []Cluster {
	var out []Cluster
	for _, g := range w.groups {
		var ps []*pref.Profile
		for _, u := range g {
			ps = append(ps, users[u])
		}
		out = append(out, Cluster{Members: append([]int(nil), g...), Common: pref.Common(ps)})
	}
	return out
}

// TestValueIndexRetriesTheMovedMember: an arrival that evicts the first
// member and the last one of a long P_U. The first eviction swap-deletes
// the last member into position 0, where the linear scan tests it next;
// the indexed scan must read the word again to do the same, or it would
// leave a dominated member in P_U.
func TestValueIndexRetriesTheMovedMember(t *testing.T) {
	doms := []*order.Domain{order.NewDomain("a"), order.NewDomain("b")}
	for v := 0; v < 2; v++ {
		doms[0].Intern(fmt.Sprint(v))
	}
	const fillers = indexMinLen
	for v := 0; v < 3+fillers; v++ {
		doms[1].Intern(fmt.Sprint(v))
	}
	// a: 0 ≻ 1. b: 0 ≻ 1 and 0 ≻ 2, every other value unordered.
	p := pref.NewProfile(doms)
	for _, e := range [][3]int{{0, 0, 1}, {1, 0, 1}, {1, 0, 2}} {
		if err := p.Relation(e[0]).Add(e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	// (1,1) first, fillers with distinct unordered b values, (1,2) last:
	// pairwise incomparable. The arrival (0,0) dominates the first and
	// the last and no filler.
	objs := []object.Object{{ID: 0, Attrs: []int32{1, 1}}}
	for i := 0; i < fillers; i++ {
		objs = append(objs, object.Object{ID: len(objs), Attrs: []int32{int32(i % 2), int32(3 + i)}})
	}
	objs = append(objs, object.Object{ID: len(objs), Attrs: []int32{1, 2}}, object.Object{ID: len(objs) + 1, Attrs: []int32{0, 0}})
	clusters := func(u *pref.Profile) []Cluster { return []Cluster{{Members: []int{0}, Common: u.Clone()}} }
	u, v := p.Clone(), p.Clone()
	eng, err := NewSharded([]*pref.Profile{u}, clusters(u), nil, nil, 1, &stats.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewShardedPerObject([]*pref.Profile{v}, clusters(v), nil, nil, 1, &stats.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if got, want := eng.Process(o), ref.Process(o); !slices.Equal(got, want) {
			t.Fatalf("object %d delivered to %v, linear scan delivers to %v", o.ID, got, want)
		}
	}
	got, want := ClusterFronts(eng)[0], ClusterFronts(ref)[0]
	if !slices.Equal(got, want) || slices.Contains(got, 0) || slices.Contains(got, fillers+1) {
		t.Fatalf("P_U is %v, linear scan has %v; the arrival dominates objects 0 and %d", got, want, fillers+1)
	}
	if f := eng.shards[0].(*FilterThenVerify); !f.postings[0].current(f.ClusterFronts[0]) {
		t.Fatal("the arrival's scan did not read the postings")
	}
	CheckPostings(t, eng)
}

// TestValueIndexOrderedValuesFollowTheRow: the ordered-value list cached for a value
// is read again when the relation publishes a new table, and forget lets
// go of the table it was read from.
func TestValueIndexOrderedValuesFollowTheRow(t *testing.T) {
	dom := order.NewDomain("a")
	for v := 0; v < 4; v++ {
		dom.Intern(fmt.Sprint(v))
	}
	r := order.NewRelation(dom)
	if err := r.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	var p valuePostings
	p.near = make([][]orderedVals, 1)
	if got := p.ordered(0, 0, r.Row(0)); !slices.Equal(got, []uint16{1}) {
		t.Fatalf("ordered = %v, want [1]", got)
	}
	if err := r.Add(2, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.ordered(0, 0, r.Row(0)); !slices.Equal(got, []uint16{1, 2}) {
		t.Fatalf("after 2 ≻ 0, ordered = %v, want [1 2]", got)
	}
	p.forget()
	if p.near[0][0].row != nil {
		t.Fatal("forget kept the row")
	}
}

// TestValueIndexScanDoesNotAllocate: once the postings and the
// ordered-value lists exist, planning and running an indexed scan
// allocates nothing — the plan lives in the engine's reused scratch.
func TestValueIndexScanDoesNotAllocate(t *testing.T) {
	w := newIndexWorld(14, 3)
	objs := make([]object.Object, 4096)
	for i := range objs {
		objs[i] = w.next()
	}
	f, probes := scanWorld(w.asked, objs, 2*indexMinLen)
	ix := &f.postings[0]
	scan := func(o object.Object) {
		var po pref.Probe
		f.Clusters[0].Common.Prepare(o, &po)
		if !f.planIndexed(0, ix, &po, o) {
			t.Fatalf("object %d: the scan of a %d-member P_U was not planned", o.ID, f.ClusterFronts[0].Len())
		}
		f.scanIndexed(0, ix, &po)
	}
	for _, o := range probes {
		scan(o) // fill the ordered-value lists
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		scan(probes[i%len(probes)])
		i++
	}); allocs != 0 {
		t.Fatalf("an indexed scan allocates %.1f times", allocs)
	}
}

// scanWorld builds a one-cluster exact engine whose P_U has just reached
// n members, and the next 256 arrivals of the stream that dominate no
// member: a scan of one evicts nothing, so a benchmark can repeat it.
func scanWorld(users []*pref.Profile, objs []object.Object, n int) (*FilterThenVerify, []object.Object) {
	members := make([]int, len(users))
	for c := range members {
		members[c] = c
	}
	f := NewFilterThenVerify(users, []Cluster{{Members: members, Common: pref.Common(users)}}, nil)
	rest := objs
	for len(rest) > 0 && f.ClusterFronts[0].Len() < n {
		f.Process(rest[0])
		rest = rest[1:]
	}
	if f.ClusterFronts[0].Len() < n {
		panic(fmt.Sprintf("the stream grows P_U to %d members, not %d", f.ClusterFronts[0].Len(), n))
	}
	var probes []object.Object
	for _, o := range rest {
		var po pref.Probe
		f.Clusters[0].Common.Prepare(o, &po)
		if !slices.ContainsFunc(f.ClusterFronts[0].Objects(), po.Dominates) {
			probes = append(probes, o)
		}
		if len(probes) == 256 {
			break
		}
	}
	return f, probes
}

// BenchmarkFilterScan prices one filter scan of an arrival, read linearly
// and through the value postings (planning included: the arrival's
// comparable values looked up, and the postings ORed), and what the
// postings weigh per P_U member, at P_U lengths either side of
// indexMinLen, on two cluster shapes: 160 movie users
// (batch_ftv's one cluster) and 8 users of small random orders
// (BenchmarkProcessDistinct's clusters). The arrivals are the stream's
// next ones that would evict nothing: a dominated one stops at its first
// dominator in scan order, the case least favourable to the postings,
// whose planning is paid in full however early the scan stops.
func BenchmarkFilterScan(b *testing.B) {
	movie := datagen.Generate(datagen.Movie().Scaled(1<<15, 160))
	movieObjs := make([]object.Object, len(movie.Objects))
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(movie.Objects)) {
		movieObjs[i] = object.Object{ID: i, Attrs: movie.Objects[k].Attrs}
	}
	small, smallObjs := fixtures.RandomWorld(rand.New(rand.NewSource(42)), 8, 4, 16, 1<<15, 24)
	worlds := []struct {
		name  string
		users []*pref.Profile
		objs  []object.Object
	}{{"movie160", movie.Users, movieObjs}, {"random8", small, smallObjs}}
	for _, w := range worlds {
		for _, n := range []int{32, indexMinLen / 2, indexMinLen, 2 * indexMinLen, 1024} {
			f, probes := scanWorld(w.users, w.objs, n)
			ix := &f.postings[0]
			for _, indexed := range []bool{false, true} {
				mode := "linear"
				if indexed {
					mode = "indexed"
				}
				b.Run(fmt.Sprintf("%s/len=%d/%s", w.name, n, mode), func(b *testing.B) {
					ctr := &stats.Counters{}
					f.Ctr = ctr
					for i := 0; i < b.N; i++ {
						o := probes[i%len(probes)]
						var po pref.Probe
						f.Clusters[0].Common.Prepare(o, &po)
						if indexed && f.planIndexed(0, ix, &po, o) {
							f.scanIndexed(0, ix, &po)
						} else {
							f.scanLinear(0, ix, &po)
						}
					}
					b.ReportMetric(float64(ctr.FilterComparisons)/float64(b.N), "cmp/op")
					if indexed {
						b.ReportMetric(float64(ix.bytes())/float64(f.ClusterFronts[0].Len()), "B/member")
					}
				})
			}
		}
	}
}

// bytes is what the postings hold on the heap: per value its posting
// words, set header and pointer, and count, and the ordered-value lists.
func (p *valuePostings) bytes() int {
	n := 0
	for d, post := range p.post {
		n += len(post) * (p.room/8 + 24 + 8 + 4)
		for _, e := range p.near[d] {
			n += 48 + 2*cap(e.vals)
		}
	}
	return n
}
