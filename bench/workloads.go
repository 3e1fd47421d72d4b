package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

// movieBranchCut is the paper's default branch cut h = 0.55 mapped onto
// the similarity scale of the synthetic movie data (see
// internal/experiments.mapH): it keeps the latent taste groups apart.
const movieBranchCut = 3.3

// spec describes one workload. The stream length is objPerSec × -seconds
// × -scale: a fixed, seeded count, so every counter repeats exactly, sized
// so that the timed phase lasts about -seconds on the reference box.
type spec struct {
	name, why string

	users      int     // community size
	catalogue  int     // pinned object catalogue the stream is drawn from
	objPerSec  float64 // stream objects per nominal second
	batch      int     // objects per request
	warmReqs   int     // minimum warm-up requests
	windowReqs int     // requests per timed window: about 25 ms of system time

	window      int     // WithWindow; 0 is append-only
	branchCut   float64 // 0 keeps the library default
	subscribers int     // in-process Subscribe channels the producer drains
	mix         bool    // window_mix's reads and lifecycle writes
	postBodies  bool    // pre-encode one POST /objects body per stream object
	partitions  int     // >0: the community is split over this many routed partitions

	echoTrips   int // >0: the reference op is refEcho with this many round trips a slice
	echoNominal float64

	build func(in *inputs, env *runEnv) (system, error)
}

var specs = []*spec{
	{
		name:  "batch_ftv",
		why:   "in-process FilterThenVerify, append-only, AddBatch of 256: the engine and dominance tables do over 80 % of the work, server, storage and partition none",
		users: 160, catalogue: 1 << 18, objPerSec: 13000, batch: 256, warmReqs: 32, windowReqs: 2,
		subscribers: 16,
		build:       buildMonitorSys,
	},
	{
		name:  "single_wal",
		why:   "one object per POST over HTTP into a file-store WAL with an SSE subscriber: JSON, transport, WAL append and SSE flush dominate, the engine is under 35 %",
		users: 64, catalogue: 1 << 17, objPerSec: 14000, batch: 1, warmReqs: 4096, windowReqs: 384,
		branchCut: movieBranchCut, postBodies: true,
		echoTrips: 50, echoNominal: refEcho1NominalUS,
		build: buildWALSys,
	},
	{
		name:  "window_mix",
		why:   "sliding window of 400 with reads, preference updates and removals between batches of 32: every arrival also expires and mends, so costlier mending or reads show here",
		users: 160, catalogue: 1 << 17, objPerSec: 7000, batch: 32, warmReqs: 16, windowReqs: 6,
		window: 400, branchCut: movieBranchCut, subscribers: 16, mix: true,
		build: buildMonitorSys,
	},
	{
		name:  "routed_2p",
		why:   "Router.AddBatch of 16 over two loopback partitions with 32 users: fan-out, JSON on the hop and delivery merge are over half of each request",
		users: 32, catalogue: 1 << 18, objPerSec: 27000, batch: 16, warmReqs: 256, windowReqs: 45,
		branchCut: movieBranchCut, partitions: 2,
		echoTrips: 28, echoNominal: refEcho16NominalUS,
		build: buildRoutedSys,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// runEnv is what a system build needs besides its inputs.
type runEnv struct {
	workdir string
	tr      *tracer // nil on an untraced run
	builds  int     // numbers the WAL directories
}

// system is one built instance of a workload's program under test.
type system interface {
	// step performs request i and returns the time spent inside the
	// system's outermost interface, consumer hand-off included and the
	// benchmark's own bookkeeping excluded.
	step(i int, rec *recorder) (time.Duration, error)
	// warmed runs once between warm-up and the timed phase.
	warmed(rec *recorder) error
	// finish waits for asynchronous consumers after the last request.
	finish(rec *recorder) error
	stats() paretomon.Stats
	clusters() int
	close() error
}

// monitorOptions are the options every workload's monitors share.
func (sp *spec) monitorOptions() []paretomon.Option {
	opts := []paretomon.Option{
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
		paretomon.WithWorkers(1),
		// A subscriber is drained once per request, so its channel must
		// hold a whole batch (and the SSE handler's a burst) or the
		// monitor drops deliveries by design.
		paretomon.WithSubscriptionBuffer(1024),
	}
	if sp.window > 0 {
		opts = append(opts, paretomon.WithWindow(sp.window))
	}
	if sp.branchCut > 0 {
		opts = append(opts, paretomon.WithBranchCut(sp.branchCut))
	}
	return opts
}

// ---- batch_ftv and window_mix: an in-process Monitor ----

type monitorSys struct {
	in      *inputs
	mon     *paretomon.Monitor
	tr      *tracer
	chans   []<-chan paretomon.Delivery
	cancels []paretomon.CancelFunc
	reads   int // rotates window_mix's Frontier reads over the users
}

func buildMonitorSys(in *inputs, env *runEnv) (system, error) {
	mon, err := paretomon.NewMonitor(in.com, in.sp.monitorOptions()...)
	if err != nil {
		return nil, err
	}
	s := &monitorSys{in: in, mon: mon, tr: env.tr}
	for _, u := range in.subs {
		ch, cancel, err := mon.Subscribe(userName(u))
		if err != nil {
			return nil, err
		}
		s.chans = append(s.chans, ch)
		s.cancels = append(s.cancels, cancel)
	}
	return s, nil
}

func (s *monitorSys) step(i int, rec *recorder) (time.Duration, error) {
	t0 := time.Now()
	ds, err := s.mon.AddBatch(s.in.batch(i))
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	s.tr.add(accAddBatch, t1.Sub(t0), 1)
	got := 0
	for _, ch := range s.chans {
	drain:
		for {
			select {
			case <-ch:
				got++
				rec.latency(time.Since(t0))
			default:
				break drain
			}
		}
	}
	sys := time.Since(t0)
	if want := rec.deliveries(i*s.in.sp.batch, ds); got != want {
		rec.fail("batch %d: subscribers read %d deliveries, the reply names them %d times", i, got, want)
	}
	if s.in.sp.mix {
		d, err := s.mixOps(i, rec)
		sys += d
		if err != nil {
			return sys, err
		}
	}
	return sys, nil
}

// mixOps is window_mix's work between batches: 4 Frontier reads, 1
// TargetsOf, and on their cadence one preference update and one removal.
func (s *monitorSys) mixOps(i int, rec *recorder) (time.Duration, error) {
	in := s.in
	t0 := time.Now()
	for k := 0; k < 4; k++ {
		if _, err := s.mon.Frontier(userName(s.reads % len(in.profiles))); err != nil {
			return 0, err
		}
		s.reads += 7
	}
	if _, err := s.mon.TargetsOf(in.objs[(i+1)*in.sp.batch-1].Name); err != nil {
		return 0, err
	}
	t1 := time.Now()
	s.tr.add(accFrontier, t1.Sub(t0), 5)
	rec.attempted += 5

	ops := in.ops[i]
	updates, removes := 0, 0
	if p := ops.pref; p != nil {
		rec.attempted++
		updates = 1
		dom := in.ds.Domains[p.dim]
		apply := s.mon.AddPreference
		if p.retract {
			apply = s.mon.RetractPreference
		}
		if err := apply(userName(p.user), in.attrs[p.dim], dom.Value(p.better), dom.Value(p.worse)); err != nil {
			return 0, err
		}
	}
	t2 := time.Now()
	s.tr.add(accUpdate, t2.Sub(t1), updates)
	if ops.remove >= 0 {
		rec.attempted++
		removes = 1
		if err := s.mon.RemoveObject(in.objs[ops.remove].Name); err != nil {
			return 0, err
		}
	}
	t3 := time.Now()
	s.tr.add(accRemove, t3.Sub(t2), removes)
	return t3.Sub(t0), nil
}

func (s *monitorSys) warmed(*recorder) error { return nil }
func (s *monitorSys) finish(*recorder) error { return nil }
func (s *monitorSys) stats() paretomon.Stats { return s.mon.Stats() }
func (s *monitorSys) clusters() int          { return len(s.mon.Clusters()) }

func (s *monitorSys) close() error {
	for _, c := range s.cancels {
		c()
	}
	return s.mon.Close()
}

// ---- HTTP plumbing shared by single_wal and routed_2p ----

// loopbackClient keeps at most conns keep-alive connections per host.
func loopbackClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
}

// deliveryReply is the body of a POST /objects reply.
type deliveryReply struct {
	Object string   `json:"object"`
	Users  []string `json:"users"`
}

func postJSON(client *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("POST %s: decoding reply: %w", url, err)
	}
	// Drain the trailing newline so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// ---- single_wal: server.New over Open() on a file store, one SSE subscriber ----

type walSys struct {
	in     *inputs
	tr     *tracer
	mon    *paretomon.Monitor
	store  *tracedStore // non-nil on a traced run, where the bench owns the store
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	dir    string

	epoch   time.Time
	sent    []int64 // ns since epoch, per stream object
	replied []int64
	win     []int32
	arrive  []atomic.Int64 // SSE arrival, 0 until seen

	sseUser   string
	tally     map[string]int // warm-up deliveries per user
	expected  []int          // timed stream objects the SSE user must receive
	sseCancel context.CancelFunc
	sseDone   chan struct{}
	sseSeen   atomic.Int64
}

func buildWALSys(in *inputs, env *runEnv) (system, error) {
	env.builds++
	s := &walSys{
		in:      in,
		tr:      env.tr,
		dir:     filepath.Join(env.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), env.builds)),
		client:  loopbackClient(2), // one for POSTs, one for the SSE stream
		epoch:   time.Now(),
		sent:    make([]int64, len(in.objs)),
		replied: make([]int64, len(in.objs)),
		win:     make([]int32, len(in.objs)),
		arrive:  make([]atomic.Int64, len(in.objs)),
		tally:   map[string]int{},
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if env.tr != nil {
		// The timing decorator has to sit between monitor and store, so
		// the traced run opens the store itself instead of through Open.
		st, serr := paretomon.NewFileStore(s.dir)
		if serr != nil {
			return nil, serr
		}
		s.store = &tracedStore{Store: st, tr: env.tr}
		s.mon, err = paretomon.NewMonitor(in.com, append(in.sp.monitorOptions(), paretomon.WithStore(s.store))...)
	} else {
		s.mon, err = paretomon.Open(in.com, s.dir, in.sp.monitorOptions()...)
	}
	if err != nil {
		return nil, err
	}
	s.srv = server.New(s.mon)
	s.ts = httptest.NewServer(env.tr.middleware(s.srv))
	return s, nil
}

func (s *walSys) step(i int, rec *recorder) (time.Duration, error) {
	var reply deliveryReply
	t0 := time.Now()
	err := postJSON(s.client, s.ts.URL+"/objects", s.in.bodies[i], &reply)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	s.tr.closeRequest()
	s.sent[i], s.replied[i], s.win[i] = int64(t0.Sub(s.epoch)), int64(t1.Sub(s.epoch)), rec.win
	rec.deliveries(i, []paretomon.Delivery{{Object: reply.Object, Users: reply.Users}})
	for _, u := range reply.Users {
		if s.sseUser == "" {
			s.tally[u]++
		} else if u == s.sseUser {
			s.expected = append(s.expected, i)
		}
	}
	return t1.Sub(t0), nil
}

// warmed subscribes, over SSE, the user the warm-up delivered to most:
// the choice is a function of the seeded stream alone.
func (s *walSys) warmed(*recorder) error {
	best := -1
	for u := 0; u < len(s.in.profiles); u++ {
		if n := s.tally[userName(u)]; n > best {
			best, s.sseUser = n, userName(u)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.sseCancel = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/subscribe/"+s.sseUser, nil)
	if err != nil {
		return err
	}
	// Do returns once the handler has subscribed and flushed its preamble.
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /subscribe/%s: %s", s.sseUser, resp.Status)
	}
	s.sseDone = make(chan struct{})
	go func() {
		defer close(s.sseDone)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			now := int64(time.Since(s.epoch))
			var d deliveryReply
			var idx int
			if json.Unmarshal(line[len("data: "):], &d) != nil {
				continue
			}
			if _, err := fmt.Sscanf(d.Object, "o%d", &idx); err != nil || idx < 0 || idx >= len(s.arrive) {
				continue
			}
			s.arrive[idx].Store(now)
			s.sseSeen.Add(1)
		}
	}()
	return nil
}

// finish waits for the SSE stream to catch up, then turns arrival times
// into delivery latencies (POST sent → event read) and SSE lag (POST
// reply → event read).
func (s *walSys) finish(rec *recorder) error {
	deadline := time.Now().Add(5 * time.Second)
	for s.sseSeen.Load() < int64(len(s.expected)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, i := range s.expected {
		at := s.arrive[i].Load()
		rec.attempted++
		if at == 0 {
			rec.fail("object %d never reached the SSE subscriber %s", i, s.sseUser)
			continue
		}
		rec.lat = append(rec.lat, sample{raw: time.Duration(at - s.sent[i]), win: s.win[i]})
		rec.lag = append(rec.lag, sample{raw: time.Duration(at - s.replied[i]), win: s.win[i]})
	}
	return nil
}

func (s *walSys) stats() paretomon.Stats { return s.mon.Stats() }
func (s *walSys) clusters() int          { return len(s.mon.Clusters()) }

func (s *walSys) close() error {
	if s.sseCancel != nil {
		s.sseCancel()
		<-s.sseDone
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.ts.Close()
	err := s.mon.Close()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// ---- routed_2p: partition.Router over two server.New partitions ----

type routedSys struct {
	in      *inputs
	tr      *tracer
	mons    []*paretomon.Monitor
	servers []*server.Server
	tss     []*httptest.Server
	client  *http.Client
	router  *partition.Router
}

// partitionCommunities splits the community the way a fleet started with
// -partition i/n would hold it.
func partitionCommunities(com *paretomon.Community, n int) ([]*paretomon.Community, error) {
	plan, err := partition.NewPlan(n, 0)
	if err != nil {
		return nil, err
	}
	out := make([]*paretomon.Community, n)
	for p := range out {
		out[p] = com.Subset(func(name string) bool { return plan.Owner(name) == p })
	}
	return out, nil
}

func buildRoutedSys(in *inputs, env *runEnv) (system, error) {
	coms, err := partitionCommunities(in.com, in.sp.partitions)
	if err != nil {
		return nil, err
	}
	s := &routedSys{in: in, tr: env.tr, client: loopbackClient(1)} // one connection per partition
	var urls []string
	for _, com := range coms {
		mon, err := paretomon.NewMonitor(com, in.sp.monitorOptions()...)
		if err != nil {
			return nil, err
		}
		srv := server.New(mon)
		ts := httptest.NewServer(env.tr.middleware(srv))
		s.mons, s.servers, s.tss = append(s.mons, mon), append(s.servers, srv), append(s.tss, ts)
		urls = append(urls, ts.URL)
	}
	s.router, err = partition.New(partition.Config{URLs: urls, Client: s.client})
	if err != nil {
		return nil, err
	}
	return s, s.router.Ready(context.Background())
}

func (s *routedSys) step(i int, rec *recorder) (time.Duration, error) {
	t0 := time.Now()
	sp := s.tr.begin("partition.route", i)
	ds, err := s.router.AddBatch(s.in.batch(i))
	s.tr.end(sp)
	sys := time.Since(t0)
	if err != nil {
		return 0, err
	}
	s.tr.closeRequest()
	// The merged reply is the consumer's hand-off: one sample a batch.
	rec.latency(sys)
	rec.deliveries(i*s.in.sp.batch, ds)
	return sys, nil
}

func (s *routedSys) warmed(*recorder) error { return nil }
func (s *routedSys) finish(*recorder) error { return nil }

// stats sums the partitions' counters; Processed is the stream position,
// which every partition shares.
func (s *routedSys) stats() paretomon.Stats {
	var sum paretomon.Stats
	for _, m := range s.mons {
		st := m.Stats()
		sum.Comparisons += st.Comparisons
		sum.FilterComparisons += st.FilterComparisons
		sum.VerifyComparisons += st.VerifyComparisons
		sum.Delivered += st.Delivered
		sum.DroppedDeliveries += st.DroppedDeliveries
		sum.Processed = max(sum.Processed, st.Processed)
	}
	return sum
}

func (s *routedSys) clusters() int {
	n := 0
	for _, m := range s.mons {
		n += len(m.Clusters())
	}
	return n
}

func (s *routedSys) close() error {
	err := s.router.Close()
	s.client.CloseIdleConnections()
	for i := range s.mons {
		s.servers[i].Close()
		s.tss[i].Close()
		if cerr := s.mons[i].Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// recorder collects what the consumer saw. Deliveries are folded into a
// digest and an 8-bit mask per object (which of the oracle's users were
// named) instead of being kept, so the benchmark's own heap stays flat.
type recorder struct {
	roles map[string]role
	masks []uint8
	seen  []bool
	hash  uint64

	timing    bool  // latency samples are taken in the timed phase only
	win       int32 // the window in progress
	lat, lag  []sample
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

type role struct {
	bit        uint8 // non-zero for an oracle user
	subscribed bool
}

func newRecorder(in *inputs) *recorder {
	r := &recorder{
		roles: map[string]role{},
		masks: make([]uint8, len(in.objs)),
		seen:  make([]bool, len(in.objs)),
		hash:  14695981039346656037,
		lat:   make([]sample, 0, 1<<16),
	}
	for k, u := range in.sample {
		ro := r.roles[userName(u)]
		ro.bit = 1 << k
		r.roles[userName(u)] = ro
	}
	for _, u := range in.subs {
		ro := r.roles[userName(u)]
		ro.subscribed = true
		r.roles[userName(u)] = ro
	}
	return r
}

func (r *recorder) mix(s string) {
	for i := 0; i < len(s); i++ {
		r.hash = (r.hash ^ uint64(s[i])) * 1099511628211
	}
	r.hash = (r.hash ^ 0xff) * 1099511628211
}

// deliveries records the deliveries of stream objects first, first+1, …
// and returns how many times they name a subscribed user.
func (r *recorder) deliveries(first int, ds []paretomon.Delivery) (subscribed int) {
	for k, d := range ds {
		i := first + k
		if d.Object != objectName(i) {
			r.fail("delivery %d names object %q", i, d.Object)
			continue
		}
		r.seen[i] = true
		r.mix(d.Object)
		for _, u := range d.Users {
			r.mix(u)
			ro := r.roles[u]
			r.masks[i] |= ro.bit
			if ro.subscribed {
				subscribed++
			}
		}
	}
	return subscribed
}

func (r *recorder) latency(d time.Duration) {
	if r.timing {
		r.lat = append(r.lat, sample{raw: d, win: r.win})
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}
