package paretomon_test

// Equivalence tests for the v3 lifecycle API across every engine shape:
//
//   - seq-vs-parallel: a randomized interleaved Add / AddPreference /
//     RetractPreference / AddUser / RemoveUser / RemoveObject workload
//     must produce identical outcomes, frontiers, targets and work
//     counters on the sequential and sharded engines (run under -race
//     this also exercises the fan-out paths);
//   - crash recovery: a durable monitor killed mid-workload and
//     recovered via the store must be indistinguishable — frontiers,
//     targets, counters — from an uninterrupted run;
//   - fresh-build equivalence: after arbitrary lifecycle churn, the
//     monitor's frontiers must equal those of a fresh monitor built
//     from the final community over the final alive objects.
//
// To keep every scripted operation valid on every monitor (so scripts
// replay identically), all preference edges are drawn consistent with a
// fixed global ranking per attribute: chains are increasing
// subsequences, so no insertion can form a cycle and every scripted
// retraction targets a tuple the model knows is asserted.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	paretomon "repro"
)

// lcAttrs is the fixed schema: per attribute, values in globally ranked
// order (edges always point down-rank).
var lcAttrs = []struct {
	name   string
	values []string
}{
	{"brand", []string{"Apple", "Lenovo", "Sony", "Toshiba", "Acer", "Asus"}},
	{"cpu", []string{"octa", "quad", "triple", "dual", "single"}},
	{"size", []string{"small", "medium", "large"}},
}

// lcOp is one scripted lifecycle mutation.
type lcOp struct {
	kind    string // "batch", "addpref", "retract", "adduser", "rmuser", "rmobj"
	batch   []paretomon.Object
	user    string
	pref    paretomon.Preference // addpref / retract
	prefs   []paretomon.Preference
	objName string
}

// lcScript generates a deterministic interleaved workload: the model
// tracks alive users (with their asserted tuples) and alive objects so
// every op is valid on any monitor that replayed the prefix.
type lcScript struct {
	rng      *rand.Rand
	ops      []lcOp
	users    map[string][]paretomon.Preference // alive user -> asserted tuples in order
	order    []string                          // alive users in (re-)registration order
	objs     []paretomon.Object                // added objects in arrival order
	alive    map[string]int                    // alive object name -> objs index
	window   int                               // the monitors' window; 0 = append-only
	nextObj  int
	nextUser int
}

func (s *lcScript) chain(user string) []paretomon.Preference {
	var prefs []paretomon.Preference
	for _, a := range lcAttrs {
		// A random increasing subsequence of the global ranking.
		var picked []string
		for _, v := range a.values {
			if s.rng.Intn(2) == 0 {
				picked = append(picked, v)
			}
		}
		for i := 0; i+1 < len(picked); i++ {
			prefs = append(prefs, paretomon.Preference{Attr: a.name, Better: picked[i], Worse: picked[i+1]})
		}
	}
	return prefs
}

func (s *lcScript) addAsserted(user string, p paretomon.Preference) bool {
	for _, q := range s.users[user] {
		if q == p {
			return false
		}
	}
	s.users[user] = append(s.users[user], p)
	return true
}

func (s *lcScript) randomObject() paretomon.Object {
	values := make([]string, len(lcAttrs))
	for d, a := range lcAttrs {
		values[d] = a.values[s.rng.Intn(len(a.values))]
	}
	s.nextObj++
	return paretomon.Object{Name: fmt.Sprintf("o%04d", s.nextObj), Values: values}
}

func (s *lcScript) emitBatch() {
	n := 1 + s.rng.Intn(4)
	batch := make([]paretomon.Object, n)
	for i := range batch {
		batch[i] = s.randomObject()
		s.alive[batch[i].Name] = len(s.objs)
		s.objs = append(s.objs, batch[i])
		if w := s.window; w > 0 && len(s.objs) > w {
			delete(s.alive, s.objs[len(s.objs)-w-1].Name) // expired: forgotten
		}
	}
	s.ops = append(s.ops, lcOp{kind: "batch", batch: batch})
}

func (s *lcScript) pickUser() string {
	return s.order[s.rng.Intn(len(s.order))]
}

// lcGenerate builds the community (base users u0..u<n-1>) and the op
// script for monitors with the given window (0: append-only), whose
// expired objects it no longer counts alive.
func lcGenerate(t testing.TB, seed int64, baseUsers, steps, window int) (*paretomon.Community, *lcScript) {
	t.Helper()
	s := &lcScript{
		rng:    rand.New(rand.NewSource(seed)),
		users:  map[string][]paretomon.Preference{},
		alive:  map[string]int{},
		window: window,
	}
	names := make([]string, len(lcAttrs))
	for i, a := range lcAttrs {
		names[i] = a.name
	}
	com := paretomon.NewCommunity(paretomon.NewSchema(names...))
	for i := 0; i < baseUsers; i++ {
		name := fmt.Sprintf("u%02d", i)
		u, err := com.AddUser(name)
		if err != nil {
			t.Fatal(err)
		}
		prefs := s.chain(name)
		for _, p := range prefs {
			if err := u.Prefer(p.Attr, p.Better, p.Worse); err != nil {
				t.Fatal(err)
			}
			s.addAsserted(name, p)
		}
		s.order = append(s.order, name)
	}
	s.nextUser = baseUsers

	for i := 0; i < steps; i++ {
		switch roll := s.rng.Intn(100); {
		case roll < 45:
			s.emitBatch()
		case roll < 60: // AddPreference: a fresh down-rank edge
			user := s.pickUser()
			a := lcAttrs[s.rng.Intn(len(lcAttrs))]
			i1 := s.rng.Intn(len(a.values) - 1)
			i2 := i1 + 1 + s.rng.Intn(len(a.values)-i1-1)
			p := paretomon.Preference{Attr: a.name, Better: a.values[i1], Worse: a.values[i2]}
			s.addAsserted(user, p)
			s.ops = append(s.ops, lcOp{kind: "addpref", user: user, pref: p})
		case roll < 72: // Retract an asserted tuple, if any
			user := s.pickUser()
			asserted := s.users[user]
			if len(asserted) == 0 {
				s.emitBatch()
				continue
			}
			p := asserted[s.rng.Intn(len(asserted))]
			kept := s.users[user][:0:0]
			for _, q := range s.users[user] {
				if q != p {
					kept = append(kept, q)
				}
			}
			s.users[user] = kept
			s.ops = append(s.ops, lcOp{kind: "retract", user: user, pref: p})
		case roll < 82: // AddUser (sometimes re-using a removed name)
			s.nextUser++
			name := fmt.Sprintf("u%02d", s.nextUser)
			prefs := s.chain(name)
			s.users[name] = append([]paretomon.Preference(nil), prefs...)
			s.order = append(s.order, name)
			s.ops = append(s.ops, lcOp{kind: "adduser", user: name, prefs: prefs})
		case roll < 90: // RemoveUser (keep at least two alive)
			if len(s.order) <= 2 {
				s.emitBatch()
				continue
			}
			i := s.rng.Intn(len(s.order))
			name := s.order[i]
			s.order = append(s.order[:i], s.order[i+1:]...)
			delete(s.users, name)
			s.ops = append(s.ops, lcOp{kind: "rmuser", user: name})
		default: // RemoveObject
			if len(s.alive) == 0 {
				s.emitBatch()
				continue
			}
			// Deterministic pick despite map order: walk the arrival list
			// for the k-th alive object.
			k := s.rng.Intn(len(s.alive))
			var name string
			for _, o := range s.objs {
				if _, ok := s.alive[o.Name]; !ok {
					continue
				}
				if k == 0 {
					name = o.Name
					break
				}
				k--
			}
			delete(s.alive, name)
			s.ops = append(s.ops, lcOp{kind: "rmobj", objName: name})
		}
	}
	return com, s
}

// lcApply drives a monitor through ops [from, to); every op must
// succeed.
func lcApply(t testing.TB, m *paretomon.Monitor, ops []lcOp, from, to int) {
	t.Helper()
	for i, op := range ops[from:to] {
		var err error
		switch op.kind {
		case "batch":
			if len(op.batch) == 1 {
				_, err = m.Add(op.batch[0].Name, op.batch[0].Values...)
			} else {
				_, err = m.AddBatch(op.batch)
			}
		case "addpref":
			err = m.AddPreference(op.user, op.pref.Attr, op.pref.Better, op.pref.Worse)
		case "retract":
			err = m.RetractPreference(op.user, op.pref.Attr, op.pref.Better, op.pref.Worse)
		case "adduser":
			err = m.AddUser(op.user, op.prefs)
		case "rmuser":
			err = m.RemoveUser(op.user)
		case "rmobj":
			err = m.RemoveObject(op.objName)
		}
		if err != nil {
			t.Fatalf("op %d (%s %s%s): %v", from+i, op.kind, op.user, op.objName, err)
		}
	}
}

// lcCompare asserts two monitors are observably identical over the final
// alive community and objects; withStats additionally pins the work
// counters.
func lcCompare(t *testing.T, label string, want, got *paretomon.Monitor, s *lcScript, withStats bool) {
	t.Helper()
	for _, u := range s.order {
		fw, err1 := want.Frontier(u)
		fg, err2 := got.Frontier(u)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Frontier(%s): %v / %v", label, u, err1, err2)
		}
		if !reflect.DeepEqual(fw, fg) {
			t.Errorf("%s: frontier of %s: %v, want %v", label, u, fg, fw)
		}
	}
	for name := range s.alive {
		tw, err1 := want.TargetsOf(name)
		tg, err2 := got.TargetsOf(name)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: TargetsOf(%s): %v / %v", label, name, err1, err2)
		}
		if !reflect.DeepEqual(tw, tg) {
			t.Errorf("%s: targets of %s: %v, want %v", label, name, tg, tw)
		}
	}
	if users := got.Users(); !reflect.DeepEqual(users, s.order) {
		t.Errorf("%s: Users() = %v, want %v", label, users, s.order)
	}
	if withStats {
		sw, sg := want.Stats(), got.Stats()
		if sw.Comparisons != sg.Comparisons || sw.FilterComparisons != sg.FilterComparisons ||
			sw.VerifyComparisons != sg.VerifyComparisons || sw.Delivered != sg.Delivered ||
			sw.Processed != sg.Processed {
			t.Errorf("%s: stats diverged: got %+v, want %+v", label, sg, sw)
		}
	}
}

// lcCases are the engine shapes under test; with workers 1 and 3 they
// cover all eight engines (sequential and sharded, append-only and
// windowed) plus the approximate variant.
var lcCases = []struct {
	name   string
	opts   []paretomon.Option
	window int
}{
	{"baseline", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline)}, 0},
	{"ftv", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(1.2)}, 0},
	{"ftva", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerifyApprox), paretomon.WithBranchCut(1.2), paretomon.WithThetas(40, 0.3)}, 0},
	{"baselineSW", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithWindow(17)}, 17},
	{"ftvSW", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(1.2), paretomon.WithWindow(17)}, 17},
}

// TestLifecycleSeqVsParallel pins sharded-engine equivalence under
// interleaved lifecycle mutations: deliveries are not compared op by op
// (both monitors run the same script independently) but final frontiers,
// targets, community and exact work counters must match.
func TestLifecycleSeqVsParallel(t *testing.T) {
	for _, tc := range lcCases {
		t.Run(tc.name, func(t *testing.T) {
			com, s := lcGenerate(t, 31, 8, 90, tc.window)
			seq, err := paretomon.NewMonitor(com, append(append([]paretomon.Option{}, tc.opts...), paretomon.WithWorkers(1))...)
			if err != nil {
				t.Fatal(err)
			}
			par, err := paretomon.NewMonitor(com, append(append([]paretomon.Option{}, tc.opts...), paretomon.WithWorkers(3))...)
			if err != nil {
				t.Fatal(err)
			}
			lcApply(t, seq, s.ops, 0, len(s.ops))
			lcApply(t, par, s.ops, 0, len(s.ops))
			lcCompare(t, tc.name, seq, par, s, true)
		})
	}
}

// TestLifecycleCrashRecovery is the tentpole's acceptance gate: a
// durable monitor performing interleaved lifecycle mutations, killed
// without any shutdown and recovered over the same store, must report
// frontiers, targets and stats identical to an uninterrupted run — for
// every engine shape, sharded or not, with and without snapshots.
func TestLifecycleCrashRecovery(t *testing.T) {
	for _, tc := range lcCases {
		for _, layout := range crashLayouts {
			for _, snapEvery := range []int{0, 7} {
				name := fmt.Sprintf("%s/workers=%s/snapEvery=%d", tc.name, layout, snapEvery)
				t.Run(name, func(t *testing.T) {
					com, s := lcGenerate(t, 47, 8, 80, tc.window)
					half := len(s.ops) / 2
					opts := append(append([]paretomon.Option{}, tc.opts...), paretomon.WithWorkers(layout.crash))

					ref, err := paretomon.NewMonitor(com, opts...)
					if err != nil {
						t.Fatal(err)
					}
					lcApply(t, ref, s.ops, 0, len(s.ops))

					store := paretomon.NewMemStore()
					durable := append(append([]paretomon.Option{}, opts...), paretomon.WithStore(store))
					if snapEvery > 0 {
						durable = append(durable, paretomon.WithSnapshotEvery(snapEvery))
					}
					m1, err := paretomon.NewMonitor(com, durable...)
					if err != nil {
						t.Fatal(err)
					}
					lcApply(t, m1, s.ops, 0, half)
					// No Close, no final snapshot: the kill -9 point.

					m2, err := paretomon.NewMonitor(com, append(durable, paretomon.WithWorkers(layout.reopen))...)
					if err != nil {
						t.Fatalf("recovery: %v", err)
					}
					lcApply(t, m2, s.ops, half, len(s.ops))
					lcCompare(t, name, ref, m2, s, true)
				})
			}
		}
	}
}

// TestLifecycleEqualsFreshBuild pins the semantic core of the lifecycle
// API: after arbitrary churn — users joining and leaving, preferences
// asserted and retracted, objects added and removed — the monitor's
// frontiers equal those of a fresh monitor built directly from the final
// community over the final alive objects. Windows are sized above the
// stream so windowed engines see the same alive set. (The approximate
// engine is excluded: its results legitimately depend on the clustering
// path, which incremental evolution and fresh agglomeration need not
// share.)
func TestLifecycleEqualsFreshBuild(t *testing.T) {
	cases := []struct {
		name string
		opts []paretomon.Option
	}{
		{"baseline", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline)}},
		{"ftv", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(1.2)}},
		{"baselineSW", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline), paretomon.WithWindow(1000)}},
		{"ftvSW", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(1.2), paretomon.WithWindow(1000)}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				com, s := lcGenerate(t, 59, 8, 90, 0) // the window of 1000 outlasts the script
				opts := append(append([]paretomon.Option{}, tc.opts...), paretomon.WithWorkers(workers))
				evolved, err := paretomon.NewMonitor(com, opts...)
				if err != nil {
					t.Fatal(err)
				}
				lcApply(t, evolved, s.ops, 0, len(s.ops))

				// Fresh monitor from the final community: alive users with
				// their final asserted tuples, alive objects in arrival order.
				names := make([]string, len(lcAttrs))
				for i, a := range lcAttrs {
					names[i] = a.name
				}
				finalCom := paretomon.NewCommunity(paretomon.NewSchema(names...))
				for _, name := range s.order {
					u, err := finalCom.AddUser(name)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range s.users[name] {
						if err := u.Prefer(p.Attr, p.Better, p.Worse); err != nil {
							t.Fatal(err)
						}
					}
				}
				fresh, err := paretomon.NewMonitor(finalCom, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range s.objs {
					if _, ok := s.alive[o.Name]; !ok {
						continue
					}
					if _, err := fresh.Add(o.Name, o.Values...); err != nil {
						t.Fatal(err)
					}
				}
				// Frontiers and targets must agree; work counters need not —
				// the evolved monitor earned its state down a different path.
				lcCompare(t, tc.name, fresh, evolved, s, false)
			})
		}
	}
}

// A windowed monitor's lifecycle operations must pay neither for the
// object registry nor for the window: the engines read the window's
// objects where the registry holds them — at most 2W slots however long
// the stream, and each call copies none of them. Two monitors whose
// windows hold the same objects behind registries of different lengths
// allocate the same number of times, and the same number of bytes, per
// operation; and two monitors whose windows differ sixteenfold in length
// but whose frontiers are alike allocate within 4 KB of each other.
func TestWindowedLifecycleAllocsIgnoreRegistryLength(t *testing.T) {
	const w, period = 16, 50
	build := func(registry int) *paretomon.Monitor {
		com := paretomon.NewCommunity(paretomon.NewSchema("brand", "cpu"))
		for _, name := range []string{"ann", "bob", "cy"} {
			u, err := com.AddUser(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Prefer("brand", "b0", "b1"); err != nil {
				t.Fatal(err)
			}
		}
		m, err := paretomon.NewMonitor(com, paretomon.WithWindow(w))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < registry; i++ { // registry % period == 0: both windows end alike
			v := i % period
			if _, err := m.Add(fmt.Sprintf("o%d", i), fmt.Sprintf("b%d", v%7), fmt.Sprintf("c%d", v%5)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	// One run asserts and retracts a tuple (RetractPreference mends from
	// the alive set) and leaves the monitor as it found it.
	op := func(m *paretomon.Monitor) func() {
		return func() {
			if err := m.AddPreference("ann", "cpu", "c1", "c2"); err != nil {
				t.Fatal(err)
			}
			if err := m.RetractPreference("ann", "cpu", "c1", "c2"); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := op(build(10*period)), op(build(200*period))
	if s, l := testing.AllocsPerRun(50, small), testing.AllocsPerRun(50, large); l > s {
		t.Errorf("allocations per lifecycle op grow with the registry: %.0f at 500 objects, %.0f at 10000", s, l)
	}
	// The registry snapshot this guards against is 32 B per object ever
	// ingested: 304 KB more at the larger size.
	if s, l := bytesPerRun(50, small), bytesPerRun(50, large); l > s+4096 {
		t.Errorf("bytes allocated per lifecycle op grow with the registry: %d at 500 objects, %d at 10000", s, l)
	}

	// Over the window's own length: Baseline on one worker, users who
	// prefer b0 ≻ b1 and c0 ≻ c1..c4, and 4W arrivals of which every
	// W/4-th is (b0, c0), which dominates the rest. Every frontier holds
	// the window's four copies of (b0, c0) at either size, so the mend
	// work is alike; a copy of the window on each call, in each shard,
	// would cost 16 B … 64 B per object in it.
	sized := func(w int) func() {
		com := paretomon.NewCommunity(paretomon.NewSchema("brand", "cpu"))
		for _, name := range []string{"ann", "bob", "cy"} {
			u, err := com.AddUser(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Prefer("brand", "b0", "b1"); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 5; i++ {
				if err := u.Prefer("cpu", "c0", fmt.Sprintf("c%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		m, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
			paretomon.WithWorkers(1), paretomon.WithWindow(w))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*w; i++ {
			vals := []string{"b1", fmt.Sprintf("c%d", 1+i%4)}
			if i%(w/4) == 0 {
				vals = []string{"b0", "c0"}
			}
			if _, err := m.Add(fmt.Sprintf("o%d", i), vals...); err != nil {
				t.Fatal(err)
			}
		}
		if f, _ := m.Frontier("ann"); len(f) != 4 {
			t.Fatalf("W=%d: ann's frontier is %v, want the window's four copies of (b0, c0)", w, f)
		}
		return op(m)
	}
	short, long := sized(64), sized(1024)
	if s, l := bytesPerRun(50, short), bytesPerRun(50, long); l > s+4096 {
		t.Errorf("bytes allocated per lifecycle op grow with the window: %d at W=64, %d at W=1024", s, l)
	}
}

// bytesPerRun is the heap allocated per call of f, over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// An append-only monitor's engines read the alive objects from the
// registry where it stands; a lifecycle call copies none of it. Removing
// an object whose tuple keeps a twin alive, outside every frontier,
// changes nothing but the registry and the object's class, so it must
// cost the same at 500 alive objects as at 10 000, for both exact
// engines.
func TestAppendOnlyRemovalAllocsIgnoreRegistryLength(t *testing.T) {
	const period, removals = 50, 50
	build := func(alive int, opts ...paretomon.Option) *paretomon.Monitor {
		com := paretomon.NewCommunity(paretomon.NewSchema("brand", "cpu"))
		for _, name := range []string{"ann", "bob", "cy"} {
			u, err := com.AddUser(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 7; i++ {
				if err := u.Prefer("brand", "b0", fmt.Sprintf("b%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < 5; i++ {
				if err := u.Prefer("cpu", "c0", fmt.Sprintf("c%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		m, err := paretomon.NewMonitor(com, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// (b0, c0) dominates every other tuple for everyone; the rest are
		// 30 tuples, each alive at least 16 times over.
		if _, err := m.Add("top", "b0", "c0"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < alive; i++ {
			v := i % period
			if _, err := m.Add(fmt.Sprintf("o%d", i), fmt.Sprintf("b%d", 1+v%6), fmt.Sprintf("c%d", v%5)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	for _, tc := range []struct {
		name string
		opts []paretomon.Option
	}{
		{"Baseline", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline)}},
		{"FTV", []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithClusterCount(2)}},
	} {
		perRemoval := func(alive int) uint64 {
			m := build(alive, tc.opts...)
			next := 0
			return bytesPerRun(removals, func() {
				if err := m.RemoveObject(fmt.Sprintf("o%d", next)); err != nil {
					t.Fatal(err)
				}
				next++
			})
		}
		// The registry copy this guards against is 32 B per alive object:
		// 304 KB more at the larger size.
		if s, l := perRemoval(10*period), perRemoval(200*period); l > s+4096 {
			t.Errorf("%s: bytes allocated per removal grow with the registry: %d at 500 objects, %d at 10000", tc.name, s, l)
		}
	}
}
