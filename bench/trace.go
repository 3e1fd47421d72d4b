package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	paretomon "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/window"
)

// span is one timed call across a layer boundary, recorded by a wrapper
// this package owns: nothing is added inside the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	ID     int    `json:"id"`     // request or batch index: spans of one request share it
}

// tracer holds a traced run's spans in memory, plus the per-window
// accumulators and counts the wrappers feed. All methods are no-ops on a
// nil tracer, so the untraced run calls them unconditionally.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	open    []int           // indices of the spans not yet ended, outermost first
	handles []time.Duration // server.handle durations of the request in flight

	cur [nAcc]atomic.Int64 // accumulators of the window in progress
	cnt [nAcc]atomic.Int64 // how many operations fed each of them

	reqBytes, respBytes atomic.Int64 // HTTP bodies through the middleware
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open span of another name:
// with one request in flight the open spans form a chain (request →
// route → handle → append), except that the partitions' handlers of one
// routed request are siblings. A span given id -1 inherits its parent's.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.spans[t.open[k]].Name != name {
			parent = t.open[k]
			break
		}
	}
	if id < 0 && parent >= 0 {
		id = t.spans[parent].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ID: id})
	t.open = append(t.open, idx)
	return idx
}

func (t *tracer) end(idx int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = now
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == idx {
			t.open = append(t.open[:k], t.open[k+1:]...)
			break
		}
	}
}

// add feeds d, covering n operations, into an accumulator of the window
// in progress.
func (t *tracer) add(acc int, d time.Duration, n int) {
	if t == nil || n == 0 {
		return
	}
	t.cur[acc].Add(int64(d))
	t.cnt[acc].Add(int64(n))
}

// drain moves the accumulators into the window being closed.
func (t *tracer) drain(w *timedWindow) {
	if t == nil {
		return
	}
	for a := accSys + 1; a < nAcc; a++ {
		w.acc[a] = time.Duration(t.cur[a].Swap(0))
		w.n[a] = int(t.cnt[a].Swap(0))
	}
}

// closeRequest folds the request's partition handler spans into the
// slowest/fastest accumulators. The closed loop guarantees every handler
// of the request has returned.
func (t *tracer) closeRequest() {
	if t == nil {
		return
	}
	t.mu.Lock()
	hs := t.handles
	t.handles = t.handles[:0]
	t.mu.Unlock()
	if len(hs) == 0 {
		return
	}
	lo, hi := hs[0], hs[0]
	for _, h := range hs[1:] {
		lo, hi = min(lo, h), max(hi, h)
	}
	t.add(accHandleMax, hi, 1)
	t.add(accHandleMin, lo, 1)
}

// middleware wraps a server.Server: one server.handle span per request,
// and the body sizes. SSE streams are long-lived and pass through.
func (t *tracer) middleware(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/subscribe/") {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		sp := t.begin("server.handle", -1)
		h.ServeHTTP(cw, r)
		t.end(sp)
		d := time.Since(t0)
		t.add(accHandle, d, 1)
		t.reqBytes.Add(max(r.ContentLength, 0))
		t.respBytes.Add(cw.n)
		t.mu.Lock()
		t.handles = append(t.handles, d)
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Flush keeps SSE-style handlers working behind the wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedStore is the timing decorator around the Store handed to
// WithStore: one storage.append span per Append.
type tracedStore struct {
	storage.Store
	tr *tracer
}

func (s *tracedStore) Append(recs ...storage.Record) error {
	t0 := time.Now()
	sp := s.tr.begin("storage.append", -1)
	err := s.Store.Append(recs...)
	s.tr.end(sp)
	s.tr.add(accAppend, time.Since(t0), 1)
	return err
}

// writeSpans writes the span list as one JSON document.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- twins: the layers below the outermost interface, replayed on the same stream ----

// twins replays the stream through three stand-ins in one pass, so that
// all three meet the same machine: the standalone engines
// (core.FilterThenVerify, or window.FilterThenVerifySW under a window),
// a bare Monitor.AddBatch without subscribers, and one with the
// workload's subscribers attached and drained outside the timed call.
// Engine time is the core/window layer, bare minus engine is what the
// Monitor adds (validate, intern, name sort, Delivery build), and
// subscribed minus bare is what publishing costs. routed_2p's twins hold
// one stand-in per partition and run them concurrently, as the router
// drives the real ones.
type twins struct {
	in      *inputs
	tr      *tracer
	engines []interface{ Process(object.Object) []int }
	ctrs    []*stats.Counters // one per engine: they run side by side
	bare    []*paretomon.Monitor
	pub     *paretomon.Monitor // nil when the workload has no subscribers
	chans   []<-chan paretomon.Delivery
	pending []int   // requests the monitors have yet to replay
	buildS  float64 // clustering time, calibrated seconds
}

// partitionMembers lists each partition's user indices; one partition
// holding everybody unless the workload is routed.
func partitionMembers(in *inputs) ([][]int, []*paretomon.Community, error) {
	if in.sp.partitions == 0 {
		all := make([]int, len(in.profiles))
		for u := range all {
			all[u] = u
		}
		return [][]int{all}, []*paretomon.Community{in.com}, nil
	}
	coms, err := partitionCommunities(in.com, in.sp.partitions)
	if err != nil {
		return nil, nil, err
	}
	groups := make([][]int, len(coms))
	for p, com := range coms {
		owned := map[string]bool{}
		for _, u := range com.Users() {
			owned[u] = true
		}
		for u := range in.profiles {
			if owned[userName(u)] {
				groups[p] = append(groups[p], u)
			}
		}
	}
	return groups, coms, nil
}

func buildTwins(in *inputs, ref *refCompute, tr *tracer) (*twins, error) {
	groups, coms, err := partitionMembers(in)
	if err != nil {
		return nil, err
	}
	tw := &twins{in: in, tr: tr}
	for _, com := range coms {
		mon, err := paretomon.NewMonitor(com, in.sp.monitorOptions()...)
		if err != nil {
			return nil, err
		}
		tw.bare = append(tw.bare, mon)
	}
	subs := in.subs
	if in.sp.postBodies {
		subs = in.sample[:1] // single_wal has one SSE subscriber
	}
	if len(subs) > 0 {
		mon, err := paretomon.NewMonitor(in.com, in.sp.monitorOptions()...)
		if err != nil {
			return nil, err
		}
		tw.pub = mon
		for _, u := range subs {
			ch, _, err := mon.Subscribe(userName(u))
			if err != nil {
				return nil, err
			}
			tw.chans = append(tw.chans, ch)
		}
	}

	// Clustering the same profiles with the same measure and cut
	// reproduces the monitor's clusters, which the comparison counts
	// confirm; timing it alone gives cluster.build_s.
	cut := in.sp.branchCut
	if cut == 0 {
		cut = paretomon.DefaultConfig().BranchCut
	}
	tw.buildS, _, _, _ = calibratedSeconds(ref, bracket(ref, 100*time.Millisecond), func() error {
		for _, members := range groups {
			profiles := make([]*pref.Profile, len(members))
			for k, u := range members {
				profiles[k] = in.profiles[u]
			}
			res := cluster.Agglomerative(profiles, cluster.WeightedJaccard, cut)
			clusters := make([]core.Cluster, len(res.Clusters))
			for i, ci := range res.Clusters {
				clusters[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
			}
			ctr := &stats.Counters{}
			tw.ctrs = append(tw.ctrs, ctr)
			if in.sp.window > 0 {
				tw.engines = append(tw.engines, window.NewFilterThenVerifySW(profiles, clusters, in.sp.window, ctr))
			} else {
				tw.engines = append(tw.engines, core.NewFilterThenVerify(profiles, clusters, ctr))
			}
		}
		return nil
	})
	return tw, nil
}

// engineSpan names the engine stand-in's spans after the package it replays.
func (tw *twins) engineSpan() string {
	if tw.in.sp.window > 0 {
		return "window.process"
	}
	return "core.process"
}

// step replays request i through the engines at once, and through the
// monitors once a window's worth of requests is pending: the stand-ins
// take turns window by window, not request by request, so each runs with
// its own working set in cache for a whole window, yet all three see
// every window within a few tens of milliseconds of each other.
func (tw *twins) step(i int, _ *recorder) (time.Duration, error) {
	start := time.Now()
	ebatch := tw.in.ebatch(i)
	err := tw.timed(accTwinEngine, tw.engineSpan(), i, len(tw.engines), func(k int) error {
		for _, o := range ebatch {
			tw.engines[k].Process(o)
		}
		return nil
	})
	tw.pending = append(tw.pending, i)
	if len(tw.pending) < tw.in.sp.windowReqs && i != tw.in.warm-1 && i != tw.in.reqs-1 {
		return time.Since(start), err
	}
	for _, j := range tw.pending {
		batch := tw.in.batch(j)
		if err == nil {
			err = tw.timed(accTwinBare, "monitor.addbatch", j, len(tw.bare), func(k int) error {
				_, err := tw.bare[k].AddBatch(batch)
				return err
			})
		}
	}
	for _, j := range tw.pending {
		if err != nil || tw.pub == nil {
			break
		}
		err = tw.timed(accTwinPub, "monitor.addbatch+publish", j, 1, func(int) error {
			_, err := tw.pub.AddBatch(tw.in.batch(j))
			return err
		})
		for _, ch := range tw.chans {
			for len(ch) > 0 {
				<-ch
			}
		}
	}
	tw.pending = tw.pending[:0]
	return time.Since(start), err
}

// timed runs fn(0..n-1) side by side under one span and one accumulator.
func (tw *twins) timed(acc int, name string, id, n int, fn func(int) error) error {
	t0 := time.Now()
	sp := tw.tr.begin(name, id)
	err := sideBySide(n, fn)
	tw.tr.end(sp)
	tw.tr.add(acc, time.Since(t0), 1)
	return err
}

func (tw *twins) warmed(*recorder) error { return nil }
func (tw *twins) finish(*recorder) error { return nil }
func (tw *twins) clusters() int          { return 0 }

// stats reports the engines' work; bareComparisons the bare monitors'.
func (tw *twins) stats() paretomon.Stats {
	var sum paretomon.Stats
	for _, ctr := range tw.ctrs {
		c := ctr.Snapshot()
		sum.Comparisons += c.Comparisons
		sum.Processed = max(sum.Processed, c.Processed)
	}
	return sum
}

func (tw *twins) bareComparisons() uint64 {
	var n uint64
	for _, m := range tw.bare {
		n += m.Stats().Comparisons
	}
	return n
}

func (tw *twins) close() error {
	var err error
	mons := tw.bare
	if tw.pub != nil {
		mons = append(mons[:len(mons):len(mons)], tw.pub)
	}
	for _, m := range mons {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// sideBySide runs fn(0..n-1), concurrently when n > 1.
func sideBySide(n int, fn func(k int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(k)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// relNS times Relation.Rel over the sampled users' relations and returns
// nanoseconds per call on the calibrated clock.
func relNS(in *inputs, ref *refCompute) float64 {
	const calls = 1 << 22
	before := bracket(ref, 50*time.Millisecond)
	var sink uint8
	cal, _, _, _ := calibratedSeconds(ref, before, func() error {
		x := uint64(2463534242)
		for n := 0; n < calls; {
			for _, u := range in.sample {
				p := in.profiles[u]
				for d := 0; d < p.Dims(); d++ {
					r := p.Relation(d)
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					size := uint64(r.Dom().Size())
					sink += r.Rel(int(x%size), int((x>>32)%size))
					n++
				}
			}
		}
		return nil
	})
	relSink = sink
	return cal * 1e9 / calls
}

var relSink uint8
