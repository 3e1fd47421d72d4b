package core_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/object"
	"repro/internal/oracle"
	"repro/internal/order"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// The engines' shortcuts — the value postings, the append-only member
// table and the windowed member tier, each the Bitmap skyline method —
// may change which comparisons Algs. 2 and 5 make, never a frontier
// (Theorem 4.5). An append-only row's reference is the per-object engine,
// with Alg. 2's linear scans and no member table; its streams never
// repeat a tuple, whose twins the per-object engine would keep in P_U. A
// windowed row's reference is Alg. 4 over clones of the same users.

// world is one row: a family, a community, its streams, and the premise
// its histories must meet for the row to test its shortcut.
type world struct {
	name         string
	windowed     bool
	sizes        []int // the clusters' sizes
	dims, values int   // attributes, and the values each starts with
	base, own    int   // random preference pairs per attribute every user asserts, and each its own
	wide         bool  // the last attribute starts past order.TableMaxN
	batch        int   // arrivals per batch, at most
	steps, seeds int
	workers      []int
	premise      string
	met          func(h *history) bool
}

var rows = []world{
	{name: "postings", sizes: []int{3, 3}, dims: 4, values: 10, base: 9, own: 3, batch: 32, steps: 120, seeds: 1, workers: []int{1, 2},
		premise: "the postings narrow filter scans",
		met:     func(h *history) bool { return h.eng.Totals().FilterComparisons < h.ref.Totals().FilterComparisons }},
	{name: "member-table", sizes: []int{75, 75}, dims: 4, values: 10, base: 9, own: 3, batch: 12, steps: 100, seeds: 1, workers: []int{1, 2, 3},
		premise: "a verify tier reads a member table past a late value, and the tables save verify comparisons",
		met: func(h *history) bool {
			return h.seen.behind && h.eng.Totals().VerifyComparisons < h.ref.Totals().VerifyComparisons
		}},
	{name: "member-tier/3-4-1", windowed: true, sizes: []int{3, 4, 1}, dims: 3, values: 5, own: 4, batch: 3, steps: 200, seeds: 3, workers: []int{1, 2, 3},
		premise: "the member tier reads cells, and takes the twin shortcut on arrival, expiry and the removal of a younger twin",
		met: func(h *history) bool {
			return h.seen.built && h.seen.twinArrival && h.seen.twinExpiry && h.seen.youngerRemoved
		}},
	{name: "member-tier/70-2-1", windowed: true, sizes: []int{70, 2, 1}, dims: 3, values: 5, own: 4, batch: 3, steps: 200, seeds: 3, workers: []int{1, 2, 3},
		premise: "a member set takes two words",
		met:     func(h *history) bool { return h.seen.twoWords }},
	{name: "member-tier/wide", windowed: true, sizes: []int{3, 4, 1}, dims: 3, values: 5, own: 4, wide: true, batch: 3, steps: 200, seeds: 3, workers: []int{1, 2, 3},
		premise: "the member tier reads no cell past order.TableMaxN",
		met:     func(h *history) bool { return !h.seen.built }},
	{name: "member-tier/twins", windowed: true, sizes: []int{4, 3}, dims: 2, values: 3, own: 2, batch: 4, steps: 200, seeds: 3, workers: []int{1, 2, 3},
		premise: "nine tuples: the twin shortcut is taken on arrival, expiry and the removal of a younger twin",
		met:     func(h *history) bool { return h.seen.twinArrival && h.seen.twinExpiry && h.seen.youngerRemoved }},
}

// TestShortcutsMatchReference runs every row's histories at each of its
// worker counts; check says what holds after every step. The counts after
// each step are equal across the worker counts, and at the end every
// frontier is the oracle's (on an append-only row, whose oracle costs
// seconds, at the first worker count).
func TestShortcutsMatchReference(t *testing.T) {
	for _, w := range rows {
		t.Run(w.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(w.seeds); seed++ {
				var counts []stats.Counters // after each step at the first worker count
				for k, workers := range w.workers {
					t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
						h := newHistory(t, w, seed, workers)
						h.run(w.workers[(k+1)%len(w.workers)], k == 0 || w.windowed)
						if !w.met(h) {
							t.Fatalf("the history does not meet the row's premise: %s", w.premise)
						}
						if k == 0 {
							counts = h.counts
						} else if !slices.Equal(h.counts, counts) {
							t.Fatalf("the counts after each step differ from those at %d workers", w.workers[0])
						}
					})
				}
			}
		})
	}
}

// FuzzShortcuts runs one history of a row from a fuzzed seed, worker
// count, length and first cluster size (1 to 80, so joins can widen a
// member set by a word).
func FuzzShortcuts(f *testing.F) {
	for i, w := range rows {
		f.Add(uint8(i), int64(i), uint8(i), uint8(0), uint8(w.sizes[0]-1))
	}
	f.Add(uint8(3), int64(7), uint8(1), uint8(80), uint8(62))
	f.Add(uint8(0), int64(11), uint8(1), uint8(60), uint8(2))  // postings at two workers
	f.Add(uint8(0), int64(12), uint8(0), uint8(30), uint8(5))  // postings, a six-member first cluster
	f.Add(uint8(5), int64(21), uint8(2), uint8(150), uint8(5)) // twins at three workers, a six-member first cluster
	f.Fuzz(func(t *testing.T, row uint8, seed int64, workers, steps, size uint8) {
		w := rows[int(row)%len(rows)]
		w.steps = 20 + int(steps)%w.steps
		w.sizes = append([]int{1 + int(size)%80}, w.sizes[1:]...)
		k := int(workers) % len(w.workers)
		newHistory(t, w, seed, w.workers[k]).run(w.workers[(k+1)%len(w.workers)], true)
	})
}

// engine is one engine of a history, with its own copies of the profiles.
type engine struct {
	*core.Sharded
	name  string
	users []*pref.Profile
}

// history plays the Monitor's part — the user table, the clustering, the
// alive objects — for the engines of one row.
type history struct {
	t        *testing.T
	w        world
	r        *rand.Rand
	doms     []*order.Domain
	base     *pref.Profile
	active   []bool
	clusters [][]int         // members by cluster index
	objs     []object.Object // every arrival, by id
	removed  map[int]bool
	tuples   map[string]bool // the tuples an append-only stream carried
	window   int             // W; unbounded on an append-only row
	narrow   bool            // the last attribute draws from its first values

	eng, ref, restored *engine
	counts             []stats.Counters // eng's totals after every step
	seen               struct {
		built, behind, twoWords bool
		// On a windowed row: an arrival, an expiry and a removal of a
		// younger twin, each with a twin in a shared cluster's P_U — the
		// member tier's twin shortcut.
		twinArrival, twinExpiry, youngerRemoved bool
	}
}

func newHistory(t *testing.T, w world, seed int64, workers int) *history {
	h := &history{t: t, w: w, r: rand.New(rand.NewSource(seed)), removed: map[int]bool{},
		tuples: map[string]bool{}, window: math.MaxInt32, narrow: w.wide}
	if w.windowed {
		h.window = 4 + h.r.Intn(16)
	}
	for d := 0; d < w.dims; d++ {
		dom := order.NewDomain(fmt.Sprint("a", d))
		for v := 0; v < w.values; v++ {
			dom.Intern(fmt.Sprint(v))
		}
		h.doms = append(h.doms, dom)
	}
	if w.wide {
		h.widen()
	}
	h.base = h.draw(pref.NewProfile(h.doms), w.base)
	var users []*pref.Profile
	relations := map[int]*pref.Profile{}
	for ci, n := range w.sizes {
		var members []int
		for range n {
			members = append(members, len(users))
			users = append(users, h.draw(h.base.Clone(), w.own))
			h.active = append(h.active, true)
		}
		h.clusters = append(h.clusters, members)
		relations[ci] = pref.Common(users[len(users)-n:])
	}
	h.eng = h.build("engine", users, workers, false, relations, &stats.Counters{})
	h.ref = h.build("reference", users, workers, true, relations, &stats.Counters{})
	return h
}

// build makes the row's engine or its reference over clones of users and,
// for cluster ci, of relations[ci], counting on from ctr.
func (h *history) build(name string, users []*pref.Profile, workers int, ref bool, relations map[int]*pref.Profile, ctr *stats.Counters) *engine {
	e := &engine{name: name}
	for _, p := range users {
		e.users = append(e.users, p.Clone())
	}
	var clusters []core.Cluster
	for ci, ms := range h.clusters {
		cl := core.Cluster{Members: slices.Clone(ms)}
		if len(ms) > 0 {
			cl.Common = relations[ci].Clone()
		}
		if !ref || !h.w.windowed { // Alg. 4 keeps no clusters
			clusters = append(clusters, cl)
		}
	}
	var err error
	switch {
	case h.w.windowed:
		e.Sharded, err = window.NewSharded(e.users, clusters, h.active, h.source, h.window, workers, true, ctr)
	case ref:
		e.Sharded, err = core.NewShardedPerObject(e.users, clusters, h.active, h.source, workers, ctr)
	default:
		e.Sharded, err = core.NewSharded(e.users, clusters, h.active, h.source, workers, ctr)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	return e
}

// run plays the history: random steps, fixed events, and the restore at
// a seeded step into next workers. With oracle, it ends by holding the
// frontiers to the definitions.
func (h *history) run(next int, oracle bool) {
	n, last := h.w.steps, len(h.doms)-1
	restoreAt := n/3 + h.r.Intn(n/3+1)
	for i := 0; i < n; i++ {
		switch i {
		case n / 5: // a join founds a cluster
			h.check(h.join(len(h.clusters)))
		case 3 * n / 10: // the cluster founded last empties
			if ms := slices.Clone(h.clusters[len(h.clusters)-1]); h.aliveUsers()-len(ms) >= 2 {
				for _, c := range ms {
					h.check(h.leave(c))
				}
			}
		case 7 * n / 20: // a join revives a dormant cluster
			if ci := h.dormant(); ci >= 0 {
				h.check(h.join(ci))
			}
		case 2 * n / 5: // a value interned behind the engines' backs
			h.doms[0].Intern("late")
		case 9 * n / 20: // a member leaves; a newcomer takes its slot, last in member order
			if len(h.clusters[0]) > 1 {
				h.check(h.leave(h.clusters[0][0]))
				h.check(h.join(0))
			}
		case n / 2: // a preference orders the late value
			h.check(h.apply(h.someUser(), 0, h.doms[0].Size()-1, 0))
		case 3 * n / 5: // the last domain grows past order.TableMaxN; arrivals keep to its first values
			h.widen()
			h.narrow = true
		case 13 * n / 20: // twins of a P_U entry arrive, and the younger leaves before the older expires
			if h.w.windowed {
				h.twinEvents()
			}
		case 7 * n / 10:
			h.narrow = h.w.wide
		case 3 * n / 4: // a relation reaches past order.TableMaxN
			h.check(h.apply(h.someUser(), last, h.doms[last].Size()-1, 1))
		}
		h.check(h.step())
		if i == restoreAt {
			h.restore(next)
			h.check("restore")
		}
	}
	if oracle {
		h.againstOracle()
	}
}

// step performs one random arrival batch or lifecycle call on every
// engine and names it.
func (h *history) step() string {
	r := h.r
	if r.Intn(5) < 3 {
		return h.arrive()
	}
	c := h.someUser()
	switch r.Intn(5) {
	case 0:
		d := r.Intn(len(h.doms))
		return h.apply(c, d, h.value(d), h.value(d))
	case 1:
		d := r.Intn(len(h.doms))
		asserted := h.eng.users[c].Relation(d).Asserted()
		if len(asserted) == 0 {
			return "nothing"
		}
		tu := asserted[r.Intn(len(asserted))]
		h.all(func(e *engine) error { return e.RetractPreference(c, d, tu.Better, tu.Worse) })
		return fmt.Sprintf("RetractPreference(%d: %d>%d on %d)", c, tu.Better, tu.Worse, d)
	case 2:
		return h.removeObject()
	case 3:
		cluster := slices.IndexFunc(h.clusters, func(ms []int) bool { return slices.Contains(ms, c) })
		switch k := r.Intn(6); {
		case k < 1:
			cluster = len(h.clusters)
		case k < 3 && h.dormant() >= 0:
			cluster = h.dormant()
		}
		return h.join(cluster)
	default:
		if h.aliveUsers() <= 2 {
			return "nothing"
		}
		return h.leave(c)
	}
}

// arrive feeds every engine a random batch.
func (h *history) arrive() string {
	batch := make([]object.Object, 1+h.r.Intn(h.w.batch))
	for i := range batch {
		batch[i] = h.object()
		batch[i].ID += i
	}
	return h.feed(batch)
}

// feed feeds every engine a batch and compares deliveries.
func (h *history) feed(batch []object.Object) string {
	h.objs = append(h.objs, batch...)
	if h.w.windowed {
		h.seeTwins(batch[0])
	}
	want := h.ref.ProcessBatch(batch)
	for _, e := range h.shortcut() {
		for i, got := range e.ProcessBatch(batch) {
			if !slices.Equal(got, want[i]) {
				h.t.Fatalf("%s delivers object %d to %v, the reference to %v", e.name, batch[i].ID, got, want[i])
			}
		}
	}
	return fmt.Sprintf("ProcessBatch(%d…%d)", batch[0].ID, batch[len(batch)-1].ID)
}

// twinEvents has two twins of the oldest entry of a shared cluster's P_U
// arrive, and removes the younger of them.
func (h *history) twinEvents() {
	oldest := -1
	for _, ids := range core.ClusterFronts(h.eng.Sharded) {
		for _, id := range ids {
			if oldest < 0 || id < oldest {
				oldest = id
			}
		}
	}
	if oldest < 0 {
		return
	}
	for range 2 {
		h.check(h.feed([]object.Object{{ID: len(h.objs), Attrs: slices.Clone(h.objs[oldest].Attrs)}}))
	}
	h.check(h.remove(len(h.objs) - 1))
}

// seeTwins notes whether o, about to arrive first in a batch, has a twin
// in a shared cluster's P_U, and whether the object it retires leaves one
// there.
func (h *history) seeTwins(o object.Object) {
	out := o.ID - h.window
	for _, ids := range core.ClusterFronts(h.eng.Sharded) {
		for _, id := range ids {
			h.seen.twinArrival = h.seen.twinArrival || id != out && h.twins(id, o.ID)
			h.seen.twinExpiry = h.seen.twinExpiry || id > out && slices.Contains(ids, out) && h.twins(id, out)
		}
	}
}

// twins reports whether arrivals a and b carry the same tuple; b may be
// the one about to arrive.
func (h *history) twins(a, b int) bool {
	return slices.Equal(h.objs[a].Attrs, h.objs[b].Attrs)
}

// object draws the next arrival; on an append-only row, one whose tuple
// the stream has not carried yet.
func (h *history) object() object.Object {
	for {
		o := object.Object{ID: len(h.objs), Attrs: make([]int32, len(h.doms))}
		for d := range o.Attrs {
			o.Attrs[d] = int32(h.value(d))
		}
		if key := fmt.Sprint(o.Attrs); h.w.windowed || !h.tuples[key] {
			h.tuples[key] = true
			return o
		}
	}
}

// value draws a value of attribute d interned so far.
func (h *history) value(d int) int {
	n := h.doms[d].Size()
	if h.narrow && d == len(h.doms)-1 {
		n = h.w.values
	}
	return h.r.Intn(n)
}

// draw adds n random pairs per attribute to p, dropping a pair that
// would break the order.
func (h *history) draw(p *pref.Profile, n int) *pref.Profile {
	for d := range h.doms {
		for range n {
			p.Relation(d).Add(h.value(d), h.value(d))
		}
	}
	return p
}

// widen grows the last domain past order.TableMaxN.
func (h *history) widen() {
	for dom := h.doms[len(h.doms)-1]; dom.Size() <= order.TableMaxN+8; {
		dom.Intern(fmt.Sprint("wide", dom.Size()))
	}
}

func (h *history) apply(c, d, x, y int) string {
	if !h.eng.users[c].Relation(d).CanAdd(x, y) {
		return "nothing"
	}
	h.all(func(e *engine) error { return e.ApplyPreference(c, d, x, y) })
	return fmt.Sprintf("ApplyPreference(%d: %d>%d on %d)", c, x, y, d)
}

// removeObject removes an alive object, half the time a P_U member; on a
// windowed row, one of the last W+2 arrivals, which may have just
// expired: a removal the engines must ignore.
func (h *history) removeObject() string {
	var pool []int
	for id := h.recent(2); id < len(h.objs); id++ {
		pool = append(pool, id)
	}
	if fronts := core.ClusterFronts(h.eng.Sharded); len(fronts) > 0 && h.r.Intn(2) == 0 {
		pool = fronts[slices.Sorted(maps.Keys(fronts))[h.r.Intn(len(fronts))]]
	}
	if pool = slices.DeleteFunc(pool, func(id int) bool { return h.removed[id] }); len(pool) == 0 {
		return "nothing"
	}
	return h.remove(pool[h.r.Intn(len(pool))])
}

// remove removes the alive object id.
func (h *history) remove(id int) string {
	if h.w.windowed {
		for _, ids := range core.ClusterFronts(h.eng.Sharded) {
			h.seen.youngerRemoved = h.seen.youngerRemoved ||
				slices.Contains(ids, id) && slices.ContainsFunc(ids, func(y int) bool { return y < id && h.twins(y, id) })
		}
	}
	h.removed[id] = true
	h.all(func(e *engine) error { e.RemoveObject(h.objs[id]); return nil })
	return fmt.Sprintf("RemoveObject(%d)", id)
}

// join registers a new user and activates it in cluster (a new index
// founds one); Alg. 4 gives it a cluster of its own.
func (h *history) join(cluster int) string {
	c, p := len(h.active), h.draw(h.base.Clone(), h.w.own)
	h.active = append(h.active, true)
	if cluster == len(h.clusters) {
		h.clusters = append(h.clusters, nil)
	}
	h.clusters[cluster] = append(h.clusters[cluster], c)
	for _, e := range append(h.shortcut(), h.ref) {
		e.users = append(e.users, p.Clone())
		e.RegisterUser(c, e.users[c])
		if e == h.ref && h.w.windowed {
			e.ActivateUser(c, -1)
		} else {
			e.ActivateUser(c, cluster)
		}
	}
	return fmt.Sprintf("ActivateUser(%d in %d)", c, cluster)
}

func (h *history) leave(c int) string {
	h.active[c] = false
	for ci, ms := range h.clusters {
		h.clusters[ci] = slices.DeleteFunc(ms, func(m int) bool { return m == c })
	}
	h.all(func(e *engine) error { e.RemoveUser(c); return nil })
	return fmt.Sprintf("RemoveUser(%d)", c)
}

// restore restores the engine's captured state into a fresh one over
// clones of its users and cluster relations (one computed afresh spans
// values interned since, so the postings would plan other scans), which
// counts on from the live totals, as a reopened Monitor does.
func (h *history) restore(workers int) {
	st := core.NewEngineState(len(h.active), len(h.clusters))
	h.eng.CaptureState(st)
	relations := map[int]*pref.Profile{}
	for _, sh := range core.ShardsOf(h.eng.Sharded) {
		for li, cl := range sh.Clusters {
			relations[sh.GlobalIndex(li)] = cl.Common
		}
	}
	ctr := h.eng.Totals()
	h.restored = h.build("restored engine", h.eng.users, workers, false, relations, &ctr)
	if err := h.restored.RestoreState(st); err != nil {
		h.t.Fatal(err)
	}
}

// check holds the engines with shortcuts to the reference after a step:
// P_c (in scan order on an append-only row), C_o and, on an append-only
// row, P_U in scan order, the filter count at most the reference's, and
// the verify count the reference's until a member table is built (a
// table costs a comparison per dominator it shares, and saves the scans
// it skips); their member tables and postings; and the restored engine's
// counts to the live one's.
func (h *history) check(after string) {
	h.t.Helper()
	for _, e := range h.shortcut() {
		for c, on := range h.active {
			if !on {
				continue
			}
			got, want := e.UserFrontier(c), h.ref.UserFrontier(c)
			if h.w.windowed {
				got, want = fixtures.Sorted(got), fixtures.Sorted(want)
			}
			if !slices.Equal(got, want) {
				h.t.Fatalf("after %s: the %s's P_c of user %d is %v, the reference's %v", after, e.name, c, got, want)
			}
		}
		for _, o := range h.objs[h.recent(1):] {
			if got, want := e.Targets(o.ID), h.ref.Targets(o.ID); !slices.Equal(got, want) {
				h.t.Fatalf("after %s: the %s's C_o of %d is %v, the reference's %v", after, e.name, o.ID, got, want)
			}
		}
		if got, want := core.ClusterFronts(e.Sharded), core.ClusterFronts(h.ref.Sharded); !h.w.windowed && !maps.EqualFunc(got, want, slices.Equal) {
			h.t.Fatalf("after %s: the %s's P_U are %v, the reference's %v", after, e.name, got, want)
		}
		for _, sh := range core.ShardsOf(e.Sharded) {
			for li := range sh.Clusters {
				if err := sh.CheckMemberTable(li); err != nil {
					h.t.Fatalf("after %s: the %s's member table of cluster %d: %v", after, e.name, sh.GlobalIndex(li), err)
				}
				words, n := sh.TableShape(li)
				h.seen.twoWords = h.seen.twoWords || words >= 2
				for d := range n {
					h.seen.built = true
					h.seen.behind = h.seen.behind || n[d] < h.doms[d].Size()
				}
			}
		}
		core.CheckPostings(h.t, e.Sharded)
	}
	got, want := h.eng.Totals(), h.ref.Totals()
	h.counts = append(h.counts, got)
	if !h.w.windowed && (got.FilterComparisons > want.FilterComparisons || !h.seen.built && got.VerifyComparisons != want.VerifyComparisons) {
		h.t.Fatalf("after %s: filter/verify comparisons %d/%d, the reference's %d/%d",
			after, got.FilterComparisons, got.VerifyComparisons, want.FilterComparisons, want.VerifyComparisons)
	}
	if h.restored != nil && h.restored.Totals() != got {
		h.t.Fatalf("after %s: the restored engine's totals are %+v, the live one's %+v", after, h.restored.Totals(), got)
	}
}

// againstOracle holds every alive user's P_c and every live cluster's
// P_U to Def. 3.2 over the alive objects (Def. 7.1 over the window), with
// Def. 4.1's common relation.
func (h *history) againstOracle() {
	h.t.Helper()
	alive, fronts := h.alive(), core.ClusterFronts(h.eng.Sharded)
	for ci, ms := range h.clusters {
		var ps []oracle.Prefs[int32]
		for _, c := range ms {
			ps = append(ps, fixtures.Asserted(h.eng.users[c]))
			if got, want := fixtures.Sorted(h.eng.UserFrontier(c)), fixtures.Frontier(ps[len(ps)-1], alive); !slices.Equal(got, want) {
				h.t.Fatalf("P_c of user %d is %v, the oracle's %v", c, got, want)
			}
		}
		if len(ps) == 0 {
			continue
		}
		if got, want := fixtures.Sorted(fronts[ci]), fixtures.Frontier(oracle.Common(ps...), alive); !slices.Equal(got, want) {
			h.t.Fatalf("P_U of cluster %d is %v, the oracle's %v", ci, got, want)
		}
	}
}

// shortcut returns the engine under test and, once restored, the
// restored one.
func (h *history) shortcut() []*engine {
	return slices.DeleteFunc([]*engine{h.eng, h.restored}, func(e *engine) bool { return e == nil })
}

// all runs one lifecycle call on every engine.
func (h *history) all(call func(*engine) error) {
	h.t.Helper()
	for _, e := range append(h.shortcut(), h.ref) {
		if err := call(e); err != nil {
			h.t.Fatalf("%s: %v", e.name, err)
		}
	}
}

// recent returns the index of the first of the last W+k arrivals.
func (h *history) recent(k int) int { return max(len(h.objs)-h.window-k, 0) }

// alive returns the alive objects in arrival order, as the Monitor's
// registry does; source yields them.
func (h *history) alive() []object.Object {
	return slices.DeleteFunc(slices.Clone(h.objs[h.recent(0):]), func(o object.Object) bool { return h.removed[o.ID] })
}

func (h *history) source(yield func(object.Object) bool) { slices.Values(h.alive())(yield) }

func (h *history) someUser() int {
	for {
		if c := h.r.Intn(len(h.active)); h.active[c] {
			return c
		}
	}
}

func (h *history) aliveUsers() int {
	return len(slices.DeleteFunc(slices.Clone(h.active), func(on bool) bool { return !on }))
}

// dormant returns the first cluster without members, or -1.
func (h *history) dormant() int {
	return slices.IndexFunc(h.clusters, func(ms []int) bool { return len(ms) == 0 })
}
