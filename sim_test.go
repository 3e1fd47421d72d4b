package paretomon_test

// The crash-and-replication simulator. One seeded history drives, call
// by call, a durable primary, a storeless one-shard reference that is
// never interrupted and, on the follower rows, a follower tailing the
// primary over HTTP. At seeded steps it injects faults:
//
//   - crash: the primary is closed without a snapshot and reopened over
//     the same store, under the row's reopen worker count;
//   - tear: a crash inside a file-store append. The newest wal-*.wal is
//     cut at a seeded byte inside that call's bytes, so the call is
//     unacknowledged; the reference then applies exactly the prefix the
//     reopened primary's AppliedSeq says landed;
//   - cut and restore: the primary's changefeed refuses requests and
//     drops its streams, then serves again behind the same URL;
//   - snapshot: on a small-segment store each snapshot prunes, so three
//     of them under a cut feed retire the follower's position.
//
// A crash is a process death: the page cache survives, so every write a
// call completed is on disk. Power loss is not simulated.
//
// After every step each monitor is held to one view (users, clusters,
// every frontier, every alive object's C_o, ObjectCount and
// AliveObjectCount, the work counters). The properties:
//
//  1. A reopened primary reads exactly like the reference. Each call's
//     error class and deliveries equal the reference's.
//  2. An AddBatchOnce retried after a torn append is answered as at
//     arrival.
//  3. Runs start with tenant.BootIngest, and after a crash it ingests
//     nothing: not the boot row the history deleted, nor, under a
//     window, the boot rows that expired.
//  4. After WaitSynced the follower reads exactly like the primary,
//     across cut feeds, primary restarts and a forced rebootstrap. A
//     follower subscriber sees each arrival at most once. Every mutation
//     on the follower is ErrReadOnly, and its server answers 403. A
//     file-store row without a follower opens one at its end, which must
//     catch up from the newest snapshot or a log with torn segments.
//  5. For the exact shapes, the reference's frontiers at the end are
//     internal/oracle's over the alive objects, and every alive object's
//     C_o is the users whose oracle frontier holds it.
//  6. Sharding changes no answer: wherever the primary runs on three
//     workers, every step above holds it to the one-shard reference.
//     A seeded row that asks for three workers gets at least two shards,
//     and the shards' counters sum to what the primary's totals accrued
//     since it was opened: a recovery restarts them at zero.
//
// A failing run prints its seed, its fault schedule and the history up
// to the failing step.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tenant"
)

// simShape is one engine configuration; exact shapes compute Def. 3.2's
// frontiers (every one but FilterThenVerifyApprox).
type simShape struct {
	name   string
	opts   []paretomon.Option
	window int
	exact  bool
}

var (
	simBaseline = paretomon.WithAlgorithm(paretomon.AlgorithmBaseline)
	simFTV      = paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify)
	simFTVA     = paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerifyApprox)
	simVecJac   = paretomon.WithMeasure(paretomon.MeasureVectorWeightedJaccard)
	simThree    = paretomon.WithClusterCount(3)
)

// crashShapes are the engine shapes every crash layout and snapshot
// interval runs under. ftv-file is ftv on a file store, whose appends
// tear; every other shape runs on a MemStore. ftva-vec is the measure
// whose sums once followed Go's map order: at snapEvery 0 its reopen
// clusters the community again and must find the clusters the crashed
// primary found. ftvaSW is the one shape that shards the approximate
// engine over a window.
var crashShapes = []simShape{
	{"baseline", []paretomon.Option{simBaseline}, 0, true},
	{"ftv", []paretomon.Option{simFTV, simThree}, 0, true},
	{"ftv-file", []paretomon.Option{simFTV, simThree}, 0, true},
	{"ftva", []paretomon.Option{simFTVA, simThree, paretomon.WithThetas(40, 0.3)}, 0, false},
	{"ftva-vec", []paretomon.Option{simFTVA, simVecJac, simThree}, 0, false},
	{"baselineSW", []paretomon.Option{simBaseline, paretomon.WithWindow(13)}, 13, true},
	{"ftvSW", []paretomon.Option{simFTV, simThree, paretomon.WithWindow(13)}, 13, true},
	{"ftvaSW", []paretomon.Option{simFTVA, simThree, paretomon.WithThetas(40, 0.3), paretomon.WithWindow(13)}, 13, false},
}

// followerShapes are the shapes a follower tails a primary under.
var followerShapes = []simShape{
	{"ftv", []paretomon.Option{simFTV, simThree}, 0, true},
	{"baseline-window", []paretomon.Option{simBaseline, paretomon.WithWindow(64)}, 64, true},
	{"ftva", []paretomon.Option{simFTVA, simVecJac, simThree, paretomon.WithThetas(400, 0.5)}, 0, false},
}

// simCall is one call of a history. Batches with an id go through
// AddBatchOnce. A readd re-adds, with Objs[0]'s values, the name that
// last left the window.
type simCall struct {
	paretomon.HistoryOp
	id paretomon.BatchID
}

func (c simCall) String() string {
	if c.id != (paretomon.BatchID{}) {
		return fmt.Sprintf("%v once %s", c.HistoryOp, c.id)
	}
	return c.HistoryOp.String()
}

// simFault is one injected fault, run before the call of its step (a
// tear wraps it).
type simFault struct {
	step int
	kind string // crash, tear, cut, restore, snapshot, follow
}

// simRow is one simulated run.
type simRow struct {
	name      string
	shape     simShape
	layout    crashLayout // workers at the first open, and at every reopen
	snapEvery int
	file      bool  // a file store, whose appends can tear; else a MemStore
	segBytes  int64 // the file store's segment size; 0 keeps the default
	seed      int64 // seeds the history and the tears' byte offsets
	follow    bool  // a follower tails the primary from the follow fault on
	expiry    bool  // some crash must come after a boot row left the window
	attrs     []string
	users     []string
	asserted  map[string][]paretomon.Preference
	boot      [][]string
	calls     []simCall
	faults    []simFault
	twins     int  // dominated twins the calls after the first crash must hold at least
	fanOut    bool // a primary asked for three workers must resolve at least two
}

// sim is one run in progress.
type sim struct {
	t   *testing.T
	row simRow
	rng *rand.Rand
	com *paretomon.Community
	log []func() string // the calls and faults so far, formatted on failure

	dir          string
	fs           *storage.FileStore
	mem          paretomon.Store
	primary, ref *paretomon.Monitor
	workers      int             // the primary's requested worker count
	opened       paretomon.Stats // the primary's totals when it was opened
	feed         *simFeed
	cut          bool
	cutAt        uint64
	cutSnaps     int // snapshots taken while the feed is cut
	follower     *paretomon.Monitor
	subDone      chan map[string]int
	unsubscribe  paretomon.CancelFunc

	// What the reference accepted: asserted tuples and the latest values
	// of every arrival's name, for the oracle; arrivals per name, for
	// the subscriber; arrival names in id order, for readd.
	prefs       map[string]map[paretomon.Preference]bool
	values      map[string][]string
	arrived     map[string]int
	order       []string
	crashed     bool
	expiredBoot bool // a crash came after a boot row left the window
	twins       int
}

func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s\nseed %d, faults %v\nhistory:\n%s", fmt.Sprintf(format, args...),
		s.row.seed, s.row.faults, s.history())
}

func (s *sim) history() string {
	var b strings.Builder
	for _, line := range s.log {
		b.WriteString(line() + "\n")
	}
	return b.String()
}

// note logs a fault or what came of one.
func (s *sim) note(format string, args ...any) {
	s.log = append(s.log, func() string { return "    " + fmt.Sprintf(format, args...) })
}

func runSim(t *testing.T, row simRow) {
	s := &sim{
		t: t, row: row, rng: rand.New(rand.NewSource(row.seed)),
		com:     paretomon.CommunityOf(t, row.attrs, row.users, row.asserted),
		dir:     t.TempDir(),
		mem:     paretomon.NewMemStore(),
		prefs:   map[string]map[paretomon.Preference]bool{},
		values:  map[string][]string{},
		arrived: map[string]int{},
	}
	for _, u := range row.users {
		s.prefs[u] = tupleSet(row.asserted[u])
	}
	var err error
	if s.ref, err = paretomon.NewMonitor(s.com, append(slices.Clip(row.shape.opts), paretomon.WithWorkers(1))...); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if row.follow {
		s.feed = newSimFeed()
	}
	s.open(row.layout.crash)
	s.boot(s.ref, len(row.boot))
	s.boot(s.primary, len(row.boot))
	s.check()

	faults := row.faults
	for i, c := range row.calls {
		tear := false
		for ; len(faults) > 0 && faults[0].step == i; faults = faults[1:] {
			if faults[0].kind == "tear" {
				tear = true
				continue
			}
			s.fault(faults[0].kind)
		}
		if c.Kind == "readd" {
			w := row.shape.window
			if w == 0 || len(s.order) <= w {
				continue
			}
			c.Kind, c.Objs = "add", []paretomon.Object{{Name: s.order[len(s.order)-w-1], Values: c.Objs[0].Values}}
		}
		s.log = append(s.log, func() string { return fmt.Sprintf("%3d %v", i, c) })
		if tear {
			s.tornCall(c)
		} else {
			s.call(c)
		}
		s.check()
	}
	s.finish()
}

// boot runs tenant.BootIngest and insists it ingests want rows.
func (s *sim) boot(m *paretomon.Monitor, want int) {
	s.t.Helper()
	if n, err := tenant.BootIngest(m, s.row.boot); n != want || err != nil {
		s.fatalf("BootIngest ingested %d rows (%v), want %d", n, err, want)
	}
	if m == s.ref {
		objs := make([]paretomon.Object, len(s.row.boot))
		for i, row := range s.row.boot {
			objs[i] = paretomon.Object{Name: fmt.Sprintf("o%d", i+1), Values: row}
		}
		s.accept(simCall{HistoryOp: paretomon.HistoryOp{Kind: "batch", Objs: objs}})
	}
}

// open builds the primary over the row's store.
func (s *sim) open(workers int) {
	s.t.Helper()
	store := s.mem
	if s.row.file {
		fs, err := storage.OpenFile(s.dir)
		if err != nil {
			s.fatalf("opening the store: %v", err)
		}
		if s.row.segBytes > 0 {
			fs.SegmentBytes = s.row.segBytes
		}
		s.fs, store = fs, fs
	}
	opts := append(slices.Clip(s.row.shape.opts), paretomon.WithWorkers(workers), paretomon.WithStore(store))
	if s.row.snapEvery > 0 {
		opts = append(opts, paretomon.WithSnapshotEvery(s.row.snapEvery))
	}
	var err error
	if s.primary, err = paretomon.NewMonitor(s.com, opts...); err != nil {
		s.fatalf("recovery: %v", err)
	}
	s.workers, s.opened = workers, s.primary.Stats()
	if s.feed != nil && !s.cut {
		s.feed.up(s.primary)
	}
}

// shut closes the primary and its store as a killed process leaves
// them: no snapshot, nothing flushed that a completed write had not.
func (s *sim) shut() {
	if s.feed != nil {
		s.feed.down()
	}
	if s.primary != nil {
		s.primary.Close()
		s.primary = nil
	}
	if s.fs != nil {
		s.fs.Close()
		s.fs = nil
	}
}

// reopen recovers the primary and holds it to property 3.
func (s *sim) reopen() {
	s.t.Helper()
	s.open(s.row.layout.reopen)
	s.boot(s.primary, 0)
	s.crashed = true
	for i := range s.row.boot {
		name := fmt.Sprintf("o%d", i+1)
		_, kept := s.values[name]
		s.expiredBoot = s.expiredBoot || kept && !s.ref.HasObject(name)
	}
}

func (s *sim) close() {
	if s.follower != nil {
		s.follower.Close()
	}
	if s.feed != nil {
		s.feed.down()
		s.feed.ts.Close()
	}
	s.shut()
	s.ref.Close()
}

func (s *sim) fault(kind string) {
	s.t.Helper()
	s.note("%s", kind)
	switch kind {
	case "crash":
		s.shut()
		s.reopen()
	case "snapshot":
		if err := s.primary.Snapshot(); err != nil {
			s.fatalf("Snapshot: %v", err)
		}
		if s.cut {
			s.cutSnaps++
		}
	case "follow":
		s.startFollower()
	case "cut":
		s.cut, s.cutAt, s.cutSnaps = true, s.follower.AppliedSeq(), 0
		s.feed.down()
	case "restore":
		if got := s.follower.AppliedSeq(); got != s.cutAt {
			s.fatalf("the follower advanced from %d to %d while cut off", s.cutAt, got)
		}
		if _, _, err := s.primary.WALAfter(s.cutAt, 1); s.cutSnaps >= 3 && !errors.Is(err, paretomon.ErrWALRetired) {
			s.fatalf("three snapshots did not retire the follower's position %d (%v); pick another schedule", s.cutAt, err)
		}
		s.cut = false
		s.feed.up(s.primary)
	}
}

// do runs c on m.
func do(m *paretomon.Monitor, c simCall) ([]paretomon.Delivery, error) {
	switch c.Kind {
	case "add":
		d, err := m.Add(c.Objs[0].Name, c.Objs[0].Values...)
		if err != nil {
			return nil, err
		}
		return []paretomon.Delivery{d}, nil
	case "batch":
		return m.AddBatchOnce(c.id, c.Objs)
	case "rmobj":
		return nil, m.RemoveObject(c.Name)
	case "addpref":
		return nil, m.AddPreference(c.Name, c.Pref.Attr, c.Pref.Better, c.Pref.Worse)
	case "retract":
		return nil, m.RetractPreference(c.Name, c.Pref.Attr, c.Pref.Better, c.Pref.Worse)
	case "adduser":
		return nil, m.AddUser(c.Name, c.Prefs)
	case "rmuser":
		return nil, m.RemoveUser(c.Name)
	}
	panic("unknown call " + c.Kind)
}

// simErrs are the error classes a call may end in.
var simErrs = []error{
	paretomon.ErrEmptyName, paretomon.ErrUnknownUser, paretomon.ErrUnknownAttribute,
	paretomon.ErrUnknownObject, paretomon.ErrUnknownPreference, paretomon.ErrDuplicateUser,
	paretomon.ErrDuplicateObject, paretomon.ErrSchemaMismatch, paretomon.ErrCycle,
	paretomon.ErrBatchConflict,
}

func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, e := range simErrs {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return "unexpected: " + err.Error()
}

// call runs c on the primary and the reference, which must agree.
func (s *sim) call(c simCall) {
	s.t.Helper()
	got, err := do(s.primary, c)
	want, werr := s.apply(c)
	if errClass(err) != errClass(werr) || !reflect.DeepEqual(got, want) {
		s.fatalf("primary answered %v (%v), the reference %v (%v)", got, err, want, werr)
	}
}

// apply runs c on the reference and records what it accepted.
func (s *sim) apply(c simCall) ([]paretomon.Delivery, error) {
	var twins []bool // arrivals repeating an alive tuple, by batch position
	if s.crashed && s.row.twins > 0 {
		for _, o := range c.Objs {
			twins = append(twins, slices.ContainsFunc(s.order, func(name string) bool {
				return slices.Equal(s.values[name], o.Values) && s.ref.HasObject(name)
			}))
		}
	}
	ds, err := do(s.ref, c)
	if err == nil {
		s.accept(c)
		for i, d := range ds {
			if i < len(twins) && twins[i] && len(d.Users) == 0 {
				s.twins++
			}
		}
	}
	return ds, err
}

// accept records an applied call.
func (s *sim) accept(c simCall) {
	switch c.Kind {
	case "add", "batch":
		for _, o := range c.Objs {
			s.values[o.Name] = o.Values
			s.arrived[o.Name]++
			s.order = append(s.order, o.Name)
		}
	case "rmobj":
		delete(s.values, c.Name)
	case "addpref":
		s.prefs[c.Name][c.Pref] = true
	case "retract":
		delete(s.prefs[c.Name], c.Pref)
	case "adduser":
		s.prefs[c.Name] = tupleSet(c.Prefs)
	case "rmuser":
		delete(s.prefs, c.Name)
	}
}

func tupleSet(ps []paretomon.Preference) map[paretomon.Preference]bool {
	set := map[paretomon.Preference]bool{}
	for _, p := range ps {
		set[p] = true
	}
	return set
}

// walSizes maps each WAL segment of dir to its size.
func walSizes(dir string) map[string]int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	out := make(map[string]int64, len(paths))
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			out[p] = fi.Size()
		}
	}
	return out
}

// tornCall runs c on the primary and crashes it inside the call's WAL
// append. Nothing of the call may have reached the follower, so the feed
// goes down first. A call that appended nothing, or that also wrote a
// snapshot (a crash inside the append comes before it), crashes cleanly
// after the call instead.
func (s *sim) tornCall(c simCall) {
	s.t.Helper()
	if s.feed != nil {
		s.feed.down()
	}
	before, seq := walSizes(s.dir), s.primary.AppliedSeq()
	snaps, _ := filepath.Glob(filepath.Join(s.dir, "snap-*"))
	at, err := do(s.primary, c)
	after := walSizes(s.dir)
	newest := ""
	for p := range after {
		newest = max(newest, p)
	}
	lo, hi := before[newest], after[newest]
	if snapsAfter, _ := filepath.Glob(filepath.Join(s.dir, "snap-*")); hi == lo || !slices.Equal(snaps, snapsAfter) {
		s.note("the call appended nothing or snapshotted: a clean crash after it")
		want, werr := s.apply(c)
		if errClass(err) != errClass(werr) || !reflect.DeepEqual(at, want) {
			s.fatalf("primary answered %v (%v), the reference %v (%v)", at, err, want, werr)
		}
		s.shut()
		s.reopen()
		return
	}
	cut := lo + s.rng.Int63n(hi-lo)
	s.shut()
	if err := os.Truncate(newest, cut); err != nil {
		s.fatalf("tearing %s: %v", newest, err)
	}
	s.reopen()
	landed := int(s.primary.AppliedSeq() - seq)
	s.note("torn at byte %d of %s's [%d, %d): %d record(s) landed", cut, filepath.Base(newest), lo, hi, landed)
	if landed > 0 {
		prefix := c
		if c.Kind == "batch" {
			prefix.Objs = c.Objs[:landed]
		}
		if _, err := s.apply(prefix); err != nil {
			s.fatalf("the landed prefix does not apply to the reference: %v", err)
		}
	}
	if c.id == (paretomon.BatchID{}) {
		return
	}
	// Property 2: the retry is answered as the torn call was at arrival.
	got, err := do(s.primary, c)
	want, werr := do(s.ref, c)
	if err != nil || werr != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, at) {
		s.fatalf("AddBatchOnce retried after the tear answered %v (%v); the reference %v (%v); at arrival %v",
			got, err, want, werr, at)
	}
	rest := c
	rest.Objs = c.Objs[landed:]
	s.accept(rest)
}

// check holds the primary to the reference and, while the feed is up, the
// follower to the primary.
func (s *sim) check() {
	s.t.Helper()
	want, got := s.view(s.ref), s.view(s.primary)
	applied := got.Applied
	got.Applied = want.Applied
	if !sameView(got, want) {
		s.fatalf("the primary diverged from the reference:\n%s", viewDiff(got, want))
	}
	s.checkShards()
	if s.follower == nil || s.cut {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.follower.WaitSynced(ctx); err != nil {
		s.fatalf("the follower never caught up: %v (replication: %+v)", err, s.follower.Replication())
	}
	got.Applied = applied
	if f := s.view(s.follower); !sameView(f, got) {
		s.fatalf("the follower diverged from the primary:\n%s", viewDiff(f, got))
	}
}

// checkShards is the rest of property 6: a row that asks for three
// workers gets at least two shards, and the shards' counters add up to
// what the primary's totals accrued since it was opened.
func (s *sim) checkShards() {
	s.t.Helper()
	st := s.primary.Stats()
	if s.row.fanOut && s.workers == 3 && st.Workers < 2 {
		s.fatalf("WithWorkers(3) resolved %d shard(s)", st.Workers)
	}
	if st.Workers < 2 {
		return
	}
	if len(st.Shards) != st.Workers {
		s.fatalf("Stats lists %d shards of %d", len(st.Shards), st.Workers)
	}
	var sum paretomon.ShardStats
	for _, sh := range st.Shards {
		sum.Comparisons += sh.Comparisons
		sum.FilterComparisons += sh.FilterComparisons
		sum.VerifyComparisons += sh.VerifyComparisons
		sum.Delivered += sh.Delivered
		if sh.Processed != st.Processed-s.opened.Processed {
			s.fatalf("a shard processed %d arrivals, the primary %d since it was opened", sh.Processed, st.Processed-s.opened.Processed)
		}
	}
	since := paretomon.ShardStats{
		Comparisons:       st.Comparisons - s.opened.Comparisons,
		FilterComparisons: st.FilterComparisons - s.opened.FilterComparisons,
		VerifyComparisons: st.VerifyComparisons - s.opened.VerifyComparisons,
		Delivered:         st.Delivered - s.opened.Delivered,
	}
	if sum != since {
		s.fatalf("the shards' counters sum to %+v, the totals accrued %+v since the primary was opened", sum, since)
	}
}

// view is m's view with the five work counters; Stats.Twins restarts
// with the process.
func (s *sim) view(m *paretomon.Monitor) paretomon.MonitorView {
	v := paretomon.ViewOf(s.t, m)
	v.Counters[5] = 0
	return v
}

func sameView(a, b paretomon.MonitorView) bool {
	return slices.Equal(a.Users, b.Users) && slices.EqualFunc(a.Clusters, b.Clusters, slices.Equal) &&
		maps.EqualFunc(a.Frontiers, b.Frontiers, slices.Equal) && maps.EqualFunc(a.Targets, b.Targets, slices.Equal) &&
		a.Objects == b.Objects && a.Alive == b.Alive && a.Applied == b.Applied && a.Counters == b.Counters
}

// viewDiff names the fields in which two views differ.
func viewDiff(got, want paretomon.MonitorView) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var out []string
	for i := range g.NumField() {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", g.Type().Field(i).Name, g.Field(i), w.Field(i)))
		}
	}
	return strings.Join(out, "\n")
}

// startFollower opens the follower on the primary's feed and a
// subscriber counting its deliveries.
func (s *sim) startFollower() {
	s.t.Helper()
	f, err := paretomon.OpenFollower(s.com, s.feed.ts.URL, append(slices.Clip(s.row.shape.opts),
		paretomon.WithWorkers(s.row.layout.reopen), paretomon.WithSubscriptionBuffer(1<<14))...)
	if err != nil {
		s.fatalf("OpenFollower: %v", err)
	}
	s.follower = f
	if !s.row.follow {
		return
	}
	ch, cancel, err := f.Subscribe(s.row.users[0])
	if err != nil {
		s.fatalf("Subscribe: %v", err)
	}
	s.unsubscribe, s.subDone = cancel, make(chan map[string]int, 1)
	go func() {
		seen := map[string]int{}
		for d := range ch {
			seen[d.Object]++
		}
		s.subDone <- seen
	}()
}

// finish checks what holds at the end of a run: the premises, property
// 5 and the rest of property 4. A file-store row without a follower opens
// one now, which must catch up to the primary from its newest snapshot or
// from the start of its log, torn segments included.
func (s *sim) finish() {
	s.t.Helper()
	if s.twins < s.row.twins {
		s.fatalf("only %d arrivals after the first crash repeat a dominated tuple, want %d; pick another seed", s.twins, s.row.twins)
	}
	if s.row.expiry && !s.expiredBoot {
		s.fatalf("no boot row had expired at a crash; pick another schedule")
	}
	if s.row.shape.exact {
		s.checkOracle()
	}
	if !s.row.follow && s.row.file {
		s.feed = newSimFeed()
		s.feed.up(s.primary)
		s.startFollower()
		s.check()
	}
	if !s.row.follow {
		return
	}
	s.sub("rebootstrap", func() {
		if n := s.follower.Replication().Rebootstraps; n < 1 {
			s.fatalf("Rebootstraps = %d, want >= 1", n)
		}
	})
	s.sub("resume", func() {
		s.unsubscribe()
		seen := <-s.subDone
		for name, n := range seen {
			if n > s.arrived[name] {
				s.fatalf("%s reached the follower's subscriber %d times in %d arrivals", name, n, s.arrived[name])
			}
		}
		if len(seen) == 0 {
			s.fatalf("the follower's subscriber saw no deliveries")
		}
	})
	s.sub("readonly", func() {
		for _, kind := range []string{"add", "batch", "rmobj", "addpref", "retract", "adduser", "rmuser"} {
			c := simCall{HistoryOp: paretomon.HistoryOp{Kind: kind, Name: "o1", Objs: []paretomon.Object{{Name: "w", Values: s.row.boot[0]}}}}
			if kind != "rmobj" {
				c.Name = s.row.users[0]
			}
			if _, err := do(s.follower, c); !errors.Is(err, paretomon.ErrReadOnly) {
				s.fatalf("%s on the follower: %v, want ErrReadOnly", kind, err)
			}
		}
		fts := httptest.NewServer(server.New(s.follower))
		defer fts.Close()
		body, _ := json.Marshal(paretomon.Object{Name: "w", Values: s.row.boot[0]})
		resp, err := http.Post(fts.URL+"/objects", "application/json", bytes.NewReader(body))
		if err != nil {
			s.fatalf("POST /objects to the follower: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			s.fatalf("POST /objects to the follower: %d, want 403", resp.StatusCode)
		}
	})
}

// sub runs one of a run's closing checks as a subtest of its own, which
// s.fatalf fails.
func (s *sim) sub(name string, check func()) {
	parent := s.t
	parent.Run(name, func(t *testing.T) {
		s.t = t
		defer func() { s.t = parent }()
		check()
	})
}

// checkOracle is property 5.
func (s *sim) checkOracle() {
	s.t.Helper()
	var names []string
	var objs [][]string
	for _, name := range s.order {
		if vals, ok := s.values[name]; ok && s.ref.HasObject(name) && !slices.Contains(names, name) {
			names, objs = append(names, name), append(objs, vals)
		}
	}
	targets := map[string][]string{}
	for _, name := range names {
		targets[name] = []string{}
	}
	for _, u := range s.ref.Users() {
		p := make(oracle.Prefs[string], len(s.row.attrs))
		for t := range s.prefs[u] {
			d := slices.Index(s.row.attrs, t.Attr)
			p[d] = append(p[d], [2]string{t.Better, t.Worse})
		}
		want := []string{}
		for _, i := range oracle.Frontier(p, objs) {
			want = append(want, names[i])
			targets[names[i]] = append(targets[names[i]], u)
		}
		sort.Strings(want)
		if got, err := s.ref.Frontier(u); err != nil || !slices.Equal(got, want) {
			s.fatalf("frontier of %s is %v (%v); Def. 3.2 says %v", u, got, err, want)
		}
	}
	for name, want := range targets {
		sort.Strings(want)
		if got, err := s.ref.TargetsOf(name); err != nil || !slices.Equal(got, want) {
			s.fatalf("C_o of %s is %v (%v); Def. 3.2 says %v", name, got, err, want)
		}
	}
}

// simFeed is a primary's changefeed endpoint: one httptest.Server whose
// handler is swapped, so a restarted primary serves behind the same URL.
type simFeed struct {
	ts  *httptest.Server
	srv atomic.Pointer[server.Server] // nil while down
}

func newSimFeed() *simFeed {
	f := &simFeed{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if srv := f.srv.Load(); srv != nil {
			srv.ServeHTTP(w, r)
			return
		}
		http.Error(w, "primary down", http.StatusServiceUnavailable)
	}))
	return f
}

func (f *simFeed) up(m *paretomon.Monitor) { f.srv.Store(server.New(m)) }

// down refuses new requests, ends the old server's streams and drops
// every open connection, so nothing written from here on reaches a
// follower until the next up.
func (f *simFeed) down() {
	if srv := f.srv.Swap(nil); srv != nil {
		srv.Close()
	}
	f.ts.CloseClientConnections()
}

// seededRow draws a row's history and boot rows from seed: dupHistory's
// calls after a deletion of boot row o2 and a preference that reverses
// one u00 asserts (ErrCycle), half the batches under an AddBatchOnce id.
func seededRow(name string, shape simShape, seed int64, steps int) simRow {
	r := rand.New(rand.NewSource(seed))
	row := simRow{name: name, shape: shape, seed: seed, attrs: paretomon.DupAttrs, fanOut: true}
	var ops []paretomon.HistoryOp
	row.users, row.asserted, ops = paretomon.DupHistory(seed, steps)
	for range 6 {
		vals := make([]string, len(paretomon.DupValues))
		for a, pool := range paretomon.DupValues {
			vals[a] = pool[r.Intn(len(pool))]
		}
		row.boot = append(row.boot, vals)
	}
	p := row.asserted[row.users[0]][0]
	row.calls = []simCall{
		{HistoryOp: paretomon.HistoryOp{Kind: "rmobj", Name: "o2"}},
		{HistoryOp: paretomon.HistoryOp{Kind: "addpref", Name: row.users[0], Pref: paretomon.Preference{Attr: p.Attr, Better: p.Worse, Worse: p.Better}}},
	}
	for i, op := range ops {
		c := simCall{HistoryOp: op}
		if op.Kind == "batch" && r.Intn(2) == 0 {
			c.id = paretomon.BatchID{Writer: "w", Seq: uint64(i)}
		}
		row.calls = append(row.calls, c)
	}
	return row
}

// tearOrCrash is, on a file store, most often a tear at the first batch
// from step on; else a clean crash at step.
func (row *simRow) tearOrCrash(r *rand.Rand, step int) simFault {
	if row.file && r.Intn(3) > 0 {
		for i := step; i < len(row.calls); i++ {
			if row.calls[i].Kind == "batch" {
				return simFault{i, "tear"}
			}
		}
	}
	return simFault{step, "crash"}
}

// dupSeeds draw histories in which at least three arrivals after the
// first crash repeat a dominated tuple: a reopen from a snapshot answers
// those for free only if the class table learnt the dominated tuples.
var dupSeeds = []int64{20, 13, 38, 37}

// twinSeeds draw, for the twins rows, histories with at least three
// dominated twins among the calls after the crash.
var twinSeeds = []int64{20, 13, 38, 37}

// simRows are the default rows: every crash shape under every crash
// layout and snapshot interval; the twins rows; and every follower shape.
//
// A twins row runs an exact append-only shape on a file store at one
// worker count: a snapshot halfway, a crash some calls later, and at the
// end the follower that finish opens, which bootstraps from that snapshot
// and replays the log behind it across the crash. The reopened primary
// and that follower must count (comparisons, deliveries, arrivals) like
// the reference through the dominated twins that follow the crash.
func simRows() []simRow {
	var rows []simRow
	for _, shape := range crashShapes {
		for k, layout := range crashLayouts {
			for _, snapEvery := range []int{0, 7} {
				seed := dupSeeds[k]
				row := seededRow(fmt.Sprintf("crash/%s/workers=%s/snapEvery=%d", shape.name, layout, snapEvery), shape, seed, 60)
				row.layout, row.snapEvery, row.file = layout, snapEvery, shape.name == "ftv-file"
				r := rand.New(rand.NewSource(int64(len(rows))))
				n := len(row.calls)
				row.faults = []simFault{row.tearOrCrash(r, n/3+r.Intn(n/6)), row.tearOrCrash(r, 2*n/3+r.Intn(n/6))}
				if shape.window == 0 && shape.exact && snapEvery > 0 {
					row.twins = 3
				}
				row.expiry = shape.window > 0
				rows = append(rows, row)
			}
		}
	}
	for i, shape := range crashShapes[:2] {
		for j, workers := range []int{1, 3} {
			row := seededRow(fmt.Sprintf("twins/%s/workers=%d", shape.name, workers), shape, twinSeeds[2*i+j], 60)
			row.layout, row.file, row.twins = crashLayout{workers, workers}, true, 3
			n := len(row.calls)
			row.faults = []simFault{{n / 2, "snapshot"}, {n/2 + 8, "crash"}}
			rows = append(rows, row)
		}
	}
	for i, shape := range followerShapes {
		seed := int64(100 + i)
		row := seededRow("follower/"+shape.name, shape, seed, 100)
		row.layout, row.file, row.segBytes, row.follow = crashLayouts[i+1], true, 128, true
		r := rand.New(rand.NewSource(seed))
		j := r.Intn(5)
		row.faults = []simFault{
			{20, "snapshot"}, {25, "follow"}, // a snapshot with a WAL tail behind it
			{35 + j, "cut"}, {45 + j, "restore"},
			row.tearOrCrash(r, 55+j),
			{62 + j, "cut"}, {66 + j, "snapshot"}, {72 + j, "snapshot"}, {78 + j, "snapshot"}, {84 + j, "restore"},
		}
		sort.SliceStable(row.faults, func(a, b int) bool { return row.faults[a].step < row.faults[b].step })
		rows = append(rows, row)
	}
	return rows
}

// TestSim runs the default rows in parallel, one subtest group per row
// kind. The follower rows spend most of their time in the follower's
// reconnect backoff, so they share one parallel slot, taken first, and
// wait out their backoffs together.
func TestSim(t *testing.T) {
	rows := simRows()
	group := func(kind string) (in []simRow) {
		for _, row := range rows {
			if name, ok := strings.CutPrefix(row.name, kind+"/"); ok {
				row.name = name
				in = append(in, row)
			}
		}
		return in
	}
	t.Run("follower", func(t *testing.T) {
		t.Parallel()
		var wg sync.WaitGroup
		for _, row := range group("follower") {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.Run(row.name, func(t *testing.T) { runSim(t, row) })
			}()
		}
		wg.Wait()
	})
	for _, kind := range []string{"crash", "twins"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			for _, row := range group(kind) {
				t.Run(row.name, func(t *testing.T) {
					t.Parallel()
					runSim(t, row)
				})
			}
		})
	}
}

// FuzzSim runs random valid and invalid calls through the simulator on a
// file store, with one or two crashes, clean or torn, placed by a hash of
// the input. The first byte picks one of twelve shapes: Baseline, FTV or
// FTVA, append-only or over a window of 6, on one shard or three.
func FuzzSim(f *testing.F) {
	for shape := 0; shape < 12; shape++ {
		seed := []byte{byte(shape)}
		x := uint32(shape*2654435761 + 1)
		for i := 0; i < 150; i++ {
			x = x*1664525 + 1013904223
			seed = append(seed, byte(x>>24))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		t.Parallel()
		runSim(t, fuzzRow(data))
	})
}

// fuzzRow decodes a fuzz input: the first byte picks a shape, then three
// bytes a call over the fuzz community's pools, so calls come out valid
// and invalid alike. Half the calls are arrivals over 24 object names
// (the 24th empty); one in eleven re-adds the name that last left the
// window. Bytes past the 200th call are ignored: every step compares
// whole views, so a run's cost grows with the square of its length.
func fuzzRow(data []byte) simRow {
	cfg := paretomon.FuzzConfig(data[0])
	shape := simShape{
		name:   fmt.Sprintf("shape%d", data[0]%12),
		window: cfg.Window,
		exact:  cfg.Algorithm != paretomon.AlgorithmFilterThenVerifyApprox,
		opts: []paretomon.Option{paretomon.WithAlgorithm(cfg.Algorithm), paretomon.WithWindow(cfg.Window),
			paretomon.WithThetas(cfg.Theta1, cfg.Theta2)},
	}
	h := fnv.New64a()
	h.Write(data)
	seed := int64(h.Sum64() >> 1)
	r := rand.New(rand.NewSource(seed))
	fuzzUsers, fuzzAttrs, fuzzValues := paretomon.FuzzUsers, paretomon.FuzzAttrs, paretomon.FuzzValues
	row := simRow{
		name: shape.name, shape: shape, seed: seed, file: true,
		layout:    crashLayout{cfg.Workers, []int{1, 3}[r.Intn(2)]},
		snapEvery: []int{0, 5}[r.Intn(2)],
		attrs:     fuzzAttrs[:2],
		users:     fuzzUsers[:4],
		asserted:  paretomon.FuzzAsserted(),
		boot:      [][]string{{"b0", "c1"}, {"b1", "c0"}, {"b2", "c2"}, {"b4", "c3"}},
	}
	pick := func(pool []string, b byte) string { return pool[int(b)%len(pool)] }
	object := func(b byte) string {
		if b%24 == 23 {
			return ""
		}
		return fmt.Sprintf("o%d", b%24)
	}
	ops := data[1:min(len(data), 1+3*200)]
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := ops[i+1], ops[i+2]
		d := int(a/8) % len(fuzzAttrs)
		c := paretomon.HistoryOp{
			Name: pick(fuzzUsers, a),
			Pref: paretomon.Preference{Attr: fuzzAttrs[d], Better: pick(fuzzValues[d], b), Worse: pick(fuzzValues[d], b/8)},
			Objs: []paretomon.Object{{Name: object(a), Values: []string{pick(fuzzValues[0], b), pick(fuzzValues[1], b/8)}}},
		}
		if a%32 == 31 {
			c.Objs[0].Values = c.Objs[0].Values[:1]
		}
		switch ops[i] % 11 {
		case 0, 1, 2, 3, 4:
			c.Kind = "add"
		case 5:
			c.Kind = "addpref"
		case 6:
			c.Kind = "retract"
		case 7:
			c.Kind = "adduser"
			for k := 0; k < int(a/64); k++ {
				e := int(b>>k) % len(fuzzAttrs)
				c.Prefs = append(c.Prefs, paretomon.Preference{Attr: fuzzAttrs[e], Better: pick(fuzzValues[e], b>>k), Worse: pick(fuzzValues[e], b>>(k+3))})
			}
		case 8:
			c.Kind = "rmuser"
		case 9:
			c.Kind, c.Name = "rmobj", object(a)
		case 10:
			c.Kind = "readd"
		}
		row.calls = append(row.calls, simCall{HistoryOp: c})
	}
	n := len(row.calls)
	if n == 0 {
		return row
	}
	for k := 0; k < 1+r.Intn(2); k++ {
		kind := []string{"crash", "tear"}[r.Intn(2)]
		row.faults = append(row.faults, simFault{r.Intn(n), kind})
	}
	sort.SliceStable(row.faults, func(a, b int) bool { return row.faults[a].step < row.faults[b].step })
	return row
}
