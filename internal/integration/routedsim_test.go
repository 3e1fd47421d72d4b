package integration_test

// The routed-fleet simulator. One seeded history drives, call by call, a
// partition.Router with its server.NewRouter front over N partition
// monitors and, beside them, a storeless reference Monitor over the whole
// community. A user's frontier depends only on that user's partial
// orders and the alive objects (Def. 3.2), and clustering changes only
// the work done (Theorem 4.5): the fleet must answer as the reference
// does through restarts, lost replies, migrations, rebalances and crashed
// orchestrators.
//
// No socket is opened. simNet, the http.RoundTripper of every client,
// maps a host such as p0.sim or router.sim to its current handler and
// streams each response through an io.Pipe; an ingest stream is a
// net.Pipe whose one end the partition's handler hijacks (on a plain row
// it cannot, and batches go as POSTs). Its faults sleep nowhere: down
// (the host's streams are cut and requests fail until its n-th refused
// /readyz probe), restart (the same, and a durable partition closes
// without a snapshot and reopens over its store on that probe, so the
// router's retry loop brings it back), lost (the host applies a batch,
// then its reply — a POST's or a frame — is lost and the stream cut) and
// lost-user (the same for the reply to a user's arrival or removal, which
// has no id to be re-sent under). The other faults are the router's own
// calls: crash-import and
// crash-commit (an Observe panic after that phase of a migration, then a
// fresh router's Reconcile), half-ring (a ring pushed to partition 0 only
// before the router is replaced) and scale-out / scale-in (a Rebalance
// beside the history, which checks only each call until it ends).
//
// After every step, check holds the fleet to the reference (see there).
// A failing run prints its seed, its faults and the history so far.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/wire"
)

// simNet is an http.RoundTripper over in-process handlers, keyed by host.
// An ingest stream (GET /objects/stream) is one net.Pipe: the handler
// hijacks one end, the response's body is the other.
type simNet struct {
	mu      sync.Mutex
	hosts   map[string]*simHost
	plain   bool   // handlers cannot hijack: every host refuses the ingest stream
	onBatch func() // sees every batch a host serves, a POST or a request frame
	// posts and frames count the batches sent each way.
	posts, frames atomic.Int64
}

// simHost is one host's handler and its pending faults.
type simHost struct {
	h       http.Handler
	down    bool
	wake    int                 // refused /readyz probes until the host serves again
	revive  func() http.Handler // run on the last refused probe: the handler from then on
	lose    int                 // batch replies still to lose, a POST's or a frame
	loseOp  int                 // user-mutation replies still to lose
	streams []net.Conn          // both ends of every ingest stream opened to the host
}

func (n *simNet) serve(host string, h http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = &simHost{h: h}
}

// down refuses host's requests until the wake-th refused /readyz probe,
// and cuts its ingest streams; revive, when non-nil, then supplies the
// handler. It reports whether a revive was already pending, which stays
// pending.
func (n *simNet) down(host string, wake int, revive func() http.Handler) (pending bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.hosts[host]
	h.down, h.wake, pending = true, wake, h.revive != nil
	if !pending {
		h.revive = revive
	}
	for _, c := range h.streams {
		c.Close()
	}
	h.streams = nil
	return pending
}

// loseReply loses the reply to host's next batch, or with userOp its
// next user mutation.
func (n *simNet) loseReply(host string, userOp bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if userOp {
		n.hosts[host].loseOp++
	} else {
		n.hosts[host].lose++
	}
}

func (n *simNet) RoundTrip(req *http.Request) (*http.Response, error) {
	n.mu.Lock()
	host := n.hosts[req.URL.Host]
	if host == nil || host.down {
		if host != nil && req.URL.Path == "/readyz" {
			if host.wake--; host.wake <= 0 {
				if host.revive != nil {
					host.h, host.revive = host.revive(), nil
				}
				host.down = false
			}
		}
		n.mu.Unlock()
		if req.Body != nil {
			req.Body.Close()
		}
		// A down host refuses the connection: nothing was sent.
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: fmt.Errorf("simnet: %s is down", req.URL.Host)}
	}
	h := host.h
	batch := req.Method == http.MethodPost && req.URL.Path == "/objects/batch"
	userOp := req.Method == http.MethodPost && req.URL.Path == "/users" ||
		req.Method == http.MethodDelete && strings.HasPrefix(req.URL.Path, "/users/")
	lost := batch && host.lose > 0 || userOp && host.loseOp > 0
	switch {
	case lost && batch:
		host.lose--
	case lost:
		host.loseOp--
	}
	n.mu.Unlock()
	if batch {
		n.posts.Add(1)
		if n.onBatch != nil {
			n.onBatch()
		}
	}

	pr, pw := io.Pipe()
	w := &simWriter{header: http.Header{}, pw: pw, sent: make(chan struct{})}
	var near net.Conn // the router's end of an ingest stream; w.conn the partition's
	base := req.Context()
	if !n.plain && req.URL.Path == "/objects/stream" {
		a, b := net.Pipe()
		w.conn, near = &simConn{Conn: a, n: n, host: host}, &simConn{Conn: b, n: n}
		// A switched connection outlives the request that opened it: the
		// partition's request context is not the router's attempt's.
		base = context.WithoutCancel(base)
	}
	ctx, cancel := context.WithCancel(base)
	sreq := req.Clone(ctx)
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	sreq.RequestURI = req.URL.RequestURI()
	go func() {
		defer func() {
			w.WriteHeader(http.StatusOK)
			pw.Close()
			sreq.Body.Close()
			cancel()
		}()
		h.ServeHTTP(w, sreq)
	}()
	<-w.sent
	if w.hijacked {
		pr.Close()
		return n.switched(host, req, near, w.conn)
	}
	if near != nil {
		near.Close()
	}
	if lost {
		_, _ = io.Copy(io.Discard, pr)
		return nil, fmt.Errorf("simnet: the reply of %s%s was lost", req.URL.Host, req.URL.Path)
	}
	return &http.Response{
		Status: fmt.Sprintf("%d %s", w.status, http.StatusText(w.status)), StatusCode: w.status,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: w.sentHeader, Body: pr, ContentLength: -1, Request: req,
	}, nil
}

// switched reads the handler's answer to an upgrade off the router's end
// of the pipe, as a transport does, and hands that end over as the body.
func (n *simNet) switched(host *simHost, req *http.Request, near, far net.Conn) (*http.Response, error) {
	br := bufio.NewReader(near)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		near.Close()
		return nil, err
	}
	n.mu.Lock()
	host.streams = append(host.streams, near, far)
	n.mu.Unlock()
	resp.Body = simStream{br: br, Conn: near}
	return resp, nil
}

// simStream is a switched response's body: reads through the reader that
// parsed the 101, writes and Close on the pipe.
type simStream struct {
	br *bufio.Reader
	net.Conn
}

func (s simStream) Read(p []byte) (int, error) { return s.br.Read(p) }

// simConn is one end of an ingest stream. Every frame is one Write (the
// simulator checks it): on the router's end each request frame counts as
// a batch, on the partition's end (host set) a reply frame is lost, and
// the stream cut, while the host has replies to lose.
type simConn struct {
	net.Conn
	n    *simNet
	host *simHost
}

func (c *simConn) Write(p []byte) (int, error) {
	if len(p) == 0 || p[0] != wire.TagBatch && p[0] != wire.TagReply {
		return c.Conn.Write(p) // the 101
	}
	if len(p) < wire.FrameHeader || int(binary.LittleEndian.Uint32(p[1:])) != len(p)-wire.FrameHeader {
		panic(fmt.Sprintf("simnet: a write of %d bytes is not one whole frame", len(p)))
	}
	if c.host == nil {
		c.n.frames.Add(1)
		if c.n.onBatch != nil {
			c.n.onBatch()
		}
		return c.Conn.Write(p)
	}
	c.n.mu.Lock()
	lost := c.host.lose > 0
	if lost {
		c.host.lose--
	}
	c.n.mu.Unlock()
	if lost {
		c.Conn.Close()
		return 0, errors.New("simnet: a reply frame was lost")
	}
	return c.Conn.Write(p)
}

// simWriter is the handler's side of one exchange: the status and header
// go out on the first write or flush, the body through the pipe
// unbuffered. With conn set (an ingest stream's partition end) it can be
// hijacked.
type simWriter struct {
	header, sentHeader http.Header
	status             int
	pw                 *io.PipeWriter
	sent               chan struct{}
	conn               net.Conn
	hijacked           bool
}

func (w *simWriter) Header() http.Header { return w.header }

func (w *simWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status, w.sentHeader = code, w.header.Clone()
		close(w.sent)
	}
}

func (w *simWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

func (w *simWriter) Flush() { w.WriteHeader(http.StatusOK) }

// Hijack hands the handler the partition's end of the stream's pipe; the
// handler writes its 101 there.
func (w *simWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if w.conn == nil || w.status != 0 {
		return nil, nil, http.ErrNotSupported
	}
	w.status, w.hijacked = http.StatusSwitchingProtocols, true
	close(w.sent)
	return w.conn, bufio.NewReadWriter(bufio.NewReader(w.conn), bufio.NewWriter(w.conn)), nil
}

// The fleet's community: user i's chain on attribute d is the five values
// rotated by i + d, so frontiers are user-specific.
var (
	fleetAttrs = []string{"a", "b", "c"}
	fleetVals  = []string{"v0", "v1", "v2", "v3", "v4"}
)

// fleetCommunity builds the community and each user's asserted tuples.
func fleetCommunity(t testing.TB, users int) (*paretomon.Community, map[string][]paretomon.Preference) {
	t.Helper()
	com := paretomon.NewCommunity(paretomon.NewSchema(fleetAttrs...))
	asserted := map[string][]paretomon.Preference{}
	for i := 0; i < users; i++ {
		name := fmt.Sprintf("u%d", i)
		u, err := com.AddUser(name)
		if err != nil {
			t.Fatal(err)
		}
		for d, attr := range fleetAttrs {
			chain := make([]string, len(fleetVals))
			for j := range fleetVals {
				chain[j] = fleetVals[(j+i+d)%len(fleetVals)]
			}
			if err := u.PreferChain(attr, chain...); err != nil {
				t.Fatal(err)
			}
			for j := 1; j < len(chain); j++ {
				asserted[name] = append(asserted[name], paretomon.Preference{Attr: attr, Better: chain[j-1], Worse: chain[j]})
			}
		}
	}
	return com, asserted
}

// routedFault is one injected fault, run before the call of its step.
type routedFault struct {
	step int
	kind string // down, restart, lost, lost-user, crash-import, crash-commit, half-ring, scale-out, scale-in
	part int
}

// routedRow is one simulated run. The engine is Baseline (whose work
// partitions exactly) with opts, or FilterThenVerify over two clusters
// per monitor.
type routedRow struct {
	seed                       int64
	parts, users, steps, batch int // batch: the largest; a fault's own step sends one this large
	opts                       []paretomon.Option
	ftv                        bool
	batchesOnly                bool
	durable                    bool   // partitions run on MemStores and can restart
	plain                      bool   // partitions refuse the ingest stream: batches go as POSTs
	routerID                   string // router HA lease identity
	migrator                   bool   // a goroutine migrates the first users beside the history
	watch                      bool   // a user's /deltas stream through the router front
	faults                     []routedFault
}

// routedCall is one call of a history.
type routedCall struct {
	kind string // batch, add, rmobj, addpref, retract, adduser, rmuser
	objs []paretomon.Object
	name string
	pref paretomon.Preference
}

// simPart is one partition: a monitor on its construction community,
// behind a server.Server bound to its host.
type simPart struct {
	host  string
	com   *paretomon.Community
	store paretomon.Store // nil: storeless
	mon   *paretomon.Monitor
	srv   *server.Server
}

// routedSim is one run in progress.
type routedSim struct {
	t      testing.TB
	row    routedRow
	rng    *rand.Rand
	com    *paretomon.Community
	net    *simNet
	client *http.Client
	ref    *paretomon.Monitor
	parts  []*simPart // every partition ever booted, retired ones included
	active int        // partitions in the fan-out set
	rt     *partition.Router
	front  *server.RouterServer
	log    []string

	asserted          map[string][]paretomon.Preference // per alive user
	arrived           []string
	nextObj, nextUser int
	imported          bool // a partition imported a user: the work counters no longer sum
	grown             bool // a partition joined: Delivered no longer sums

	crashAt  string // a migration phase whose Observe event panics, once
	lostUser int    // 1 + the partition that owns this step's user mutation (lost-user); 0: none
	userOps  int    // lost-user calls drawn: they alternate between an arrival and a removal
	healRing uint64 // after the next call, a batch, the ring the fleet must agree on at least

	// A Rebalance beside the history, and whether a batch request went out
	// between two of its events, so between two of its freeze windows:
	// both are sent under the router's lock. Until one has, the history
	// sends its next batch only after the Rebalance's first event, and the
	// Rebalance waits at each event for it (awaitBatch).
	scaling       chan struct{}
	scaleRep      *partition.RebalanceReport
	scaleErr      error
	ringVersion   uint64
	events        atomic.Int64 // of the running Rebalance
	batched       atomic.Bool  // a batch request went out since the last event
	inside        atomic.Bool  // a batch request went out between two events
	holding       atomic.Bool  // a Rebalance runs beside the history and waits for a batch
	sending       atomic.Bool  // the history's call is on its way to the router
	joining       atomic.Bool  // the history waits for the Rebalance to end
	interleaved   bool
	quiet         sync.Mutex // held by the migrator around each Migrate, and by check
	stopped       atomic.Bool
	migrated      int
	migrateErr    error
	migWG         sync.WaitGroup
	watched       string
	refCh         <-chan paretomon.FrontierDelta
	gotCh         chan paretomon.FrontierDelta
	fleetClusters [][]string // at the end
	refClusters   [][]string
}

// errCrash is the panic an Observe hook raises to stop a migration.
var errCrash = errors.New("the orchestrator crashed")

func (s *routedSim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s\nseed %d, faults %v\nhistory:\n%s", fmt.Sprintf(format, args...),
		s.row.seed, s.row.faults, strings.Join(s.log, "\n"))
}

func (s *routedSim) note(format string, args ...any) {
	s.log = append(s.log, "    "+fmt.Sprintf(format, args...))
}

func runRouted(t testing.TB, row routedRow) *routedSim {
	com, asserted := fleetCommunity(t, row.users)
	s := &routedSim{
		t: t, row: row, rng: rand.New(rand.NewSource(row.seed)), com: com,
		net: &simNet{hosts: map[string]*simHost{}, plain: row.plain}, asserted: asserted, nextObj: 1, nextUser: row.users,
	}
	s.client = &http.Client{Transport: s.net}
	s.net.onBatch = func() { s.batched.Store(true) }
	var err error
	if s.ref, err = paretomon.NewMonitor(com, s.monitorOpts()...); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	plan, _ := partition.NewPlan(row.parts, 0)
	for i := 0; i < row.parts; i++ {
		s.boot(com.Subset(func(name string) bool { return plan.Owner(name) == i }))
	}
	s.active = row.parts
	s.newRouter()
	if row.watch {
		s.startWatch()
	}
	if row.migrator {
		s.startMigrator()
	}
	s.check()

	faults := row.faults
	for i := 0; i < row.steps; i++ {
		forced := false
		s.lostUser = 0
		for ; len(faults) > 0 && faults[0].step == i; faults = faults[1:] {
			s.fault(faults[0])
			forced = forced || faults[0].kind == "restart" || faults[0].kind == "lost" || faults[0].kind == "half-ring"
		}
		c := s.next(forced)
		if s.lostUser > 0 && (c.kind == "adduser" || c.kind == "rmuser") {
			// Armed only now, so that the other faults' router calls
			// of this step do not meet it.
			s.net.loseReply(s.parts[s.lostUser-1].host, true)
		}
		s.log = append(s.log, fmt.Sprintf("%3d %s %s %v %v", i, c.kind, c.name, c.pref, c.objs))
		s.call(c)
		s.check()
	}
	s.finish()
	return s
}

// monitorOpts are the engine options of the reference and every partition.
func (s *routedSim) monitorOpts() []paretomon.Option {
	opts := []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline)}
	if s.row.ftv {
		opts = []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithClusterCount(2)}
	}
	return append(append(opts, s.row.opts...), paretomon.WithSubscriptionBuffer(4096))
}

// boot starts one more partition over com, bound to host p<i>.sim.
func (s *routedSim) boot(com *paretomon.Community) {
	p := &simPart{host: fmt.Sprintf("p%d.sim", len(s.parts)), com: com}
	if s.row.durable {
		p.store = paretomon.NewMemStore()
	}
	s.parts = append(s.parts, p)
	s.net.serve(p.host, s.open(p))
}

// open builds p's monitor, over its store when it has one, and its
// server. A restart opens in the transport, off the test's goroutine, so
// a failure panics.
func (s *routedSim) open(p *simPart) http.Handler {
	opts := s.monitorOpts()
	if p.store != nil {
		opts = append(opts, paretomon.WithStore(p.store))
	}
	mon, err := paretomon.NewMonitor(p.com, opts...)
	if err != nil {
		panic(fmt.Sprintf("opening partition %s: %v", p.host, err))
	}
	p.mon, p.srv = mon, server.New(mon)
	return p.srv
}

// monitor returns partition i's monitor, which a restart swaps inside the
// transport.
func (s *routedSim) monitor(i int) *paretomon.Monitor {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	return s.parts[i].mon
}

func (s *routedSim) urls(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "http://" + s.parts[i].host
	}
	return out
}

// newRouter builds a router and front over the active partitions,
// replacing the previous ones as a crashed orchestrator is replaced.
func (s *routedSim) newRouter() {
	if s.front != nil {
		s.front.Close()
		s.rt.Close()
	}
	rt, err := partition.New(partition.Config{
		URLs: s.urls(s.active), Client: s.client, RouterID: s.row.routerID, Observe: s.observe,
		RetryBudget: 10 * time.Second, RetryInterval: 100 * time.Microsecond,
	})
	if err != nil {
		s.fatalf("partition.New: %v", err)
	}
	s.rt, s.front = rt, server.NewRouter(rt)
	s.net.serve("router.sim", s.front)
}

// observe notes a batch request between two rebalance events, holds a
// Rebalance until one can go out, and stops the orchestrator at an armed
// crash.
func (s *routedSim) observe(e partition.RebalanceEvent) {
	if s.batched.Swap(false) && s.events.Load() > 0 {
		s.inside.Store(true)
	}
	s.events.Add(1)
	if s.holding.Load() && !s.inside.Load() {
		s.awaitBatch()
	}
	if s.crashAt != "" && e.Phase == s.crashAt {
		s.crashAt = ""
		panic(errCrash)
	}
}

// afterFirstEvent waits, while a Rebalance runs and no batch went out
// between two of its events yet, until it has had its first event.
func (s *routedSim) afterFirstEvent() {
	for deadline := time.Now().Add(5 * time.Second); s.holding.Load() && !s.inside.Load() && s.events.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// awaitBatch holds the Rebalance, inside a freeze window, until the
// history's next call — on the scale row, a batch — is on its way to the
// router's lock. Between two migration windows a Rebalance hands the
// lock to a write call already waiting for it, so the batch goes out
// after this window or the next, and each of the scale row's Rebalances
// has at least two freeze windows with events after its first event's.
// The Rebalance holds at every event until a batch went out between two
// of them: the interleaving the row asserts is arranged, not hoped for.
func (s *routedSim) awaitBatch() {
	for deadline := time.Now().Add(5 * time.Second); !s.sending.Load() && !s.joining.Load() && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

func (s *routedSim) close() {
	s.stopped.Store(true)
	s.migWG.Wait()
	if s.scaling != nil {
		<-s.scaling
	}
	s.front.Close()
	s.rt.Close()
	for _, p := range s.parts {
		if p.mon != nil {
			p.srv.Close()
			p.mon.Close()
		}
	}
	s.ref.Close()
}

// next draws the next call from the reference's state. A forced call is
// a batch of the row's largest size.
func (s *routedSim) next(forced bool) routedCall {
	r := s.rng
	users := s.ref.Users()
	slices.Sort(users)
	pick := func(fallback string, odds int) string {
		if len(users) > 0 && r.Intn(odds) > 0 {
			return users[r.Intn(len(users))]
		}
		return fallback
	}
	if s.lostUser > 0 && !forced {
		return s.userCall(s.lostUser - 1)
	}
	k := r.Intn(100)
	if s.row.batchesOnly || forced {
		k = 0
	}
	switch {
	case k < 45:
		n := 1 + r.Intn(s.row.batch)
		if forced {
			n = s.row.batch
		}
		c := routedCall{kind: "batch"}
		if k >= 35 {
			c.kind, n = "add", 1
		}
		for range n {
			c.objs = append(c.objs, paretomon.Object{Name: fmt.Sprintf("o%d", s.nextObj), Values: []string{s.val(), s.val(), s.val()}})
			s.nextObj++
		}
		return c
	case k < 55 && len(s.arrived) > 0:
		return routedCall{kind: "rmobj", name: s.arrived[r.Intn(len(s.arrived))]}
	case k < 70:
		return routedCall{kind: "addpref", name: pick("nobody", 10), pref: s.randomPref()}
	case k < 80 && len(users) > 0:
		c := routedCall{kind: "retract", name: users[r.Intn(len(users))], pref: s.randomPref()}
		if as := s.asserted[c.name]; len(as) > 0 && r.Intn(4) > 0 {
			c.pref = as[r.Intn(len(as))]
		}
		return c
	case k < 90 || len(users) == 0:
		name := fmt.Sprintf("u%d", s.nextUser)
		if len(users) > 0 && r.Intn(8) == 0 {
			name = users[r.Intn(len(users))] // a duplicate
		} else {
			s.nextUser++
		}
		return routedCall{kind: "adduser", name: name, pref: s.randomPref()}
	default:
		return routedCall{kind: "rmuser", name: pick("nobody", 8)}
	}
}

// userCall is a user mutation that partition part owns: the arrival of a
// new user or, every other call while part has one, the removal of one.
func (s *routedSim) userCall(part int) routedCall {
	s.userOps++
	var owned []string
	for _, u := range s.ref.Users() {
		if s.rt.Owner(u) == part {
			owned = append(owned, u)
		}
	}
	if slices.Sort(owned); len(owned) > 0 && s.userOps%2 == 0 {
		return routedCall{kind: "rmuser", name: owned[s.rng.Intn(len(owned))]}
	}
	for range 1000 {
		name := fmt.Sprintf("u%d", s.nextUser)
		if s.nextUser++; s.rt.Owner(name) == part {
			return routedCall{kind: "adduser", name: name, pref: s.randomPref()}
		}
	}
	s.fatalf("partition %d owns no new user name", part)
	return routedCall{}
}

func (s *routedSim) val() string { return fleetVals[s.rng.Intn(len(fleetVals))] }

func (s *routedSim) randomPref() paretomon.Preference {
	return paretomon.Preference{Attr: fleetAttrs[s.rng.Intn(len(fleetAttrs))], Better: s.val(), Worse: s.val()}
}

// runCall runs c on d.
func runCall(d paretomon.Driver, c routedCall) ([]paretomon.Delivery, error) {
	switch c.kind {
	case "batch":
		return d.AddBatch(c.objs)
	case "add":
		got, err := d.Add(c.objs[0].Name, c.objs[0].Values...)
		return []paretomon.Delivery{got}, err
	case "rmobj":
		return nil, d.RemoveObject(c.name)
	case "addpref":
		return nil, d.AddPreference(c.name, c.pref.Attr, c.pref.Better, c.pref.Worse)
	case "retract":
		return nil, d.RetractPreference(c.name, c.pref.Attr, c.pref.Better, c.pref.Worse)
	case "adduser":
		return nil, d.AddUser(c.name, []paretomon.Preference{c.pref})
	}
	return nil, d.RemoveUser(c.name)
}

// errClass is the HTTP status both drivers must end a call in: unknown
// names are 404, every other refusal the caller caused is 400. A router
// answers with the partition's status.
func errClass(err error) string {
	var se *partition.StatusError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, paretomon.ErrUnknownUser), errors.Is(err, paretomon.ErrUnknownObject),
		errors.Is(err, paretomon.ErrUnknownPreference):
		return "404"
	case errors.As(err, &se):
		return strconv.Itoa(se.Status)
	case errors.Is(err, paretomon.ErrDuplicateUser), errors.Is(err, paretomon.ErrCycle):
		return "400"
	}
	return "unexpected: " + err.Error()
}

// call runs c on the router and the reference, which must agree, and
// records what the reference accepted.
func (s *routedSim) call(c routedCall) {
	s.t.Helper()
	if c.kind == "batch" {
		s.afterFirstEvent()
	}
	s.sending.Store(true)
	got, err := runCall(s.rt, c)
	s.sending.Store(false)
	want, werr := runCall(s.ref, c)
	if errClass(err) != errClass(werr) || !slices.EqualFunc(got, want, func(a, b paretomon.Delivery) bool {
		return a.Object == b.Object && slices.Equal(a.Users, b.Users)
	}) {
		s.fatalf("the router answered %v (%v), the reference %v (%v)", got, err, want, werr)
	}
	if werr != nil {
		return
	}
	switch c.kind {
	case "batch", "add":
		for _, o := range c.objs {
			s.arrived = append(s.arrived, o.Name)
		}
	case "addpref":
		s.asserted[c.name] = append(s.asserted[c.name], c.pref)
	case "retract":
		s.asserted[c.name] = slices.DeleteFunc(s.asserted[c.name], func(p paretomon.Preference) bool { return p == c.pref })
	case "adduser":
		s.asserted[c.name] = []paretomon.Preference{c.pref}
	case "rmuser":
		delete(s.asserted, c.name)
	}
}

func (s *routedSim) fault(f routedFault) {
	s.t.Helper()
	s.note("%s on partition %d", f.kind, f.part)
	p := s.parts[f.part]
	wake := 1 + s.rng.Intn(3)
	switch f.kind {
	case "down":
		s.net.down(p.host, wake, nil)
	case "restart":
		if s.net.down(p.host, wake, func() http.Handler { return s.open(p) }) {
			break // already closed, awaiting its restart
		}
		p.srv.Close()
		if err := p.mon.Close(); err != nil {
			s.fatalf("closing partition %d: %v", f.part, err)
		}
	case "lost":
		s.net.loseReply(p.host, false)
	case "lost-user":
		s.lostUser = 1 + f.part // armed by the step's user call (runRouted)
	case "crash-import", "crash-commit":
		s.awaitFleet()
		s.crashMigration(f)
	case "half-ring":
		s.awaitFleet()
		s.halfRing()
	case "scale-out":
		// The newcomer boots as `serve -partition i/n` would, with its
		// slice of the community, which the Rebalance strips.
		plan, _ := partition.NewPlan(s.active+1, 0)
		s.boot(s.com.Subset(func(name string) bool { return plan.Owner(name) == s.active }))
		s.grown = true
		s.rebalance(s.active + 1)
	case "scale-in":
		s.joinScale(true)
		s.check()
		s.rebalance(s.active - 1)
	default:
		s.fatalf("unknown fault %q", f.kind)
	}
}

// awaitFleet probes the fleet until every partition is ready, as an
// operator does before moving users: a migration does not retry.
func (s *routedSim) awaitFleet() {
	for i := 0; s.rt.Ready(context.Background()) != nil; i++ {
		if i == 10 {
			s.fatalf("the fleet never became ready")
		}
	}
}

// pickUser picks a reference user the router places on partition i.
func (s *routedSim) pickUser(i int) (string, bool) {
	users := s.ref.Users()
	slices.Sort(users)
	users = slices.DeleteFunc(users, func(u string) bool { return s.rt.Owner(u) != i })
	if len(users) == 0 || s.active < 2 {
		s.note("no user to migrate")
		return "", false
	}
	return users[s.rng.Intn(len(users))], true
}

// crashMigration stops a migration after its import or its ring commit,
// then has a fresh router reconcile the wreckage: the copy the ring does
// not sanction goes, so the migration is rolled back (import) or forward
// (commit).
func (s *routedSim) crashMigration(f routedFault) {
	victim, ok := s.pickUser(f.part)
	if !ok {
		return
	}
	from, to := f.part, (f.part+1)%s.active
	s.crashAt = strings.TrimPrefix(f.kind, "crash-")
	func() {
		defer func() {
			if r := recover(); r == nil {
				s.fatalf("migrating %s completed; the crash at %s never fired", victim, s.crashAt)
			} else if r != errCrash {
				panic(r)
			}
		}()
		_ = s.rt.Migrate([]string{victim}, from, to)
	}()
	s.imported = true
	if n := len(s.holders()[victim]); n != 2 {
		s.fatalf("the crash left %s on %d partition(s), want 2", victim, n)
	}
	s.newRouter()
	rep, err := s.rt.Reconcile(context.Background())
	if err != nil || rep.Removed != 1 || rep.Repinned != 0 {
		s.fatalf("Reconcile: %+v (%v), want exactly the stray copy of %s removed", rep, err, victim)
	}
	want := from
	if f.kind == "crash-commit" {
		want = to
	}
	if got := s.rt.Owner(victim); got != want {
		s.fatalf("after Reconcile %s is owned by partition %d, want %d", victim, got, want)
	}
	s.note("%s: reconciled onto partition %d", victim, want)
}

// halfRing installs a ring, then leaves its successor on partition 0
// only, as a router that died mid-commit would, and replaces the router:
// the new one's first write meets the conflict, adopts the newest ring
// and pushes it to the stragglers.
func (s *routedSim) halfRing() {
	if _, err := s.rt.Rebalance(context.Background(), s.urls(s.active), partition.RebalanceOptions{}); err != nil {
		s.fatalf("installing a ring: %v", err)
	}
	cur := s.rt.Ring()
	next, err := partition.NewRing(cur.Version+1, cur.Parts, cur.VNodes, cur.URLs, cur.Moves)
	if err != nil {
		s.fatalf("NewRing: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPut, "http://"+s.parts[0].host+"/ring", strings.NewReader(string(next.Encode())))
	resp, err := s.client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.fatalf("pushing ring %d to partition 0: %v %v", next.Version, resp, err)
	}
	resp.Body.Close()
	s.newRouter()
	s.healRing = next.Version
	s.note("ring %d on partition 0 only", next.Version)
}

// rebalance starts a Rebalance onto the first n partitions beside the
// history.
func (s *routedSim) rebalance(n int) {
	s.scaling = make(chan struct{})
	s.events.Store(0)
	s.inside.Store(false)
	s.holding.Store(true)
	urls := s.urls(n)
	go func() {
		defer close(s.scaling)
		s.scaleRep, s.scaleErr = s.rt.Rebalance(context.Background(), urls, partition.RebalanceOptions{BatchSize: 4})
	}()
}

// joinScale reports whether no Rebalance runs beside the history any
// more, waiting for it when wait is set, and checks the report of one
// that has finished.
func (s *routedSim) joinScale(wait bool) bool {
	if s.scaling == nil {
		return true
	}
	select {
	case <-s.scaling:
	default:
		if !wait {
			return false
		}
		s.joining.Store(true)
		<-s.scaling
		s.joining.Store(false)
	}
	s.scaling = nil
	s.holding.Store(false)
	rep := s.scaleRep
	if s.scaleErr != nil || rep.ToParts == s.active || rep.FromParts != s.active || rep.UsersMoved == 0 ||
		rep.RingVersion <= s.ringVersion {
		s.fatalf("Rebalance from %d partitions past ring %d: report %+v (%v)", s.active, s.ringVersion, rep, s.scaleErr)
	}
	s.interleaved = s.interleaved || s.inside.Load()
	s.note("rebalanced %d→%d partitions: %d users moved in %d batches, ring %d; a batch between its windows: %v",
		rep.FromParts, rep.ToParts, rep.UsersMoved, rep.Batches, rep.RingVersion, s.inside.Load())
	s.active, s.ringVersion, s.imported = rep.ToParts, rep.RingVersion, true
	return true
}

// startMigrator moves the first users between partitions beside the
// history, one Migrate at a time under s.quiet.
func (s *routedSim) startMigrator() {
	s.migWG.Add(1)
	s.imported = true
	mrng := rand.New(rand.NewSource(s.row.seed * 7919))
	go func() {
		defer s.migWG.Done()
		for s.migrateErr == nil && !s.stopped.Load() {
			u := fmt.Sprintf("u%d", mrng.Intn(s.row.users))
			s.quiet.Lock()
			from := s.rt.Owner(u)
			to := (from + 1 + mrng.Intn(s.active-1)) % s.active
			if err := s.rt.Migrate([]string{u}, from, to); err != nil {
				s.migrateErr = fmt.Errorf("migrating %s %d→%d: %w", u, from, to, err)
			} else {
				s.migrated++
			}
			s.quiet.Unlock()
		}
	}()
}

// holders maps each user to the partitions holding a copy.
func (s *routedSim) holders() map[string][]int {
	out := map[string][]int{}
	for i := range s.parts {
		for _, u := range s.monitor(i).Users() {
			out[u] = append(out[u], i)
		}
	}
	return out
}

// check holds the fleet to the reference: after a half-ring fault the
// router and every partition agree on a ring at least as new; Users,
// every Frontier and the TargetsOf of every name that ever arrived are
// the reference's; every user is held by exactly one partition, the
// router's owner; and checkStats. A Rebalance beside the history defers
// it to its end.
func (s *routedSim) check() {
	s.t.Helper()
	if s.row.migrator {
		s.quiet.Lock()
		defer s.quiet.Unlock()
		if s.migrateErr != nil {
			s.fatalf("%v", s.migrateErr)
		}
	}
	if !s.joinScale(false) {
		return
	}
	for _, u := range s.urls(s.active) {
		if s.healRing == 0 {
			break // else the forced batch after the fault reached every partition
		}
		rg := s.rt.Ring()
		resp, err := s.client.Get(u + "/ring")
		if err != nil || rg == nil || rg.Version < s.healRing || resp.Header.Get(partition.RingHeader) != strconv.FormatUint(rg.Version, 10) {
			s.fatalf("GET %s/ring: %v %v; the router routes by %+v, want ring %d or later", u, resp, err, rg, s.healRing)
		}
		resp.Body.Close()
	}
	s.healRing = 0
	users := s.ref.Users()
	slices.Sort(users)
	if got := s.rt.Users(); !slices.Equal(got, users) {
		s.fatalf("Users: router %v, reference %v", got, users)
	}
	s.checkStats()
	for _, u := range users {
		want, werr := s.ref.Frontier(u)
		got, err := s.rt.Frontier(u)
		if err != nil || werr != nil || !slices.Equal(got, want) {
			s.fatalf("Frontier(%s): router %v (%v), reference %v (%v)", u, got, err, want, werr)
		}
	}
	for _, name := range s.arrived {
		want, werr := s.ref.TargetsOf(name)
		got, err := s.rt.TargetsOf(name)
		if errClass(err) != errClass(werr) || !slices.Equal(got, want) {
			s.fatalf("TargetsOf(%s): router %v (%v), reference %v (%v)", name, got, err, want, werr)
		}
	}
	held := s.holders()
	for _, u := range users {
		if hs := held[u]; len(hs) != 1 || hs[0] != s.rt.Owner(u) {
			s.fatalf("%s is held by partitions %v; the router names %d", u, hs, s.rt.Owner(u))
		}
		delete(held, u)
	}
	if len(held) > 0 {
		s.fatalf("partitions hold users the reference does not: %v", held)
	}
}

// checkStats holds the router front's merged /stats to its merge rules
// (sums, the max Processed, the Workers total) and to the reference: its
// Processed always, its Delivered while no partition joined, and on
// Baseline rows where no partition imported a user its Comparisons and
// VerifyComparisons.
func (s *routedSim) checkStats() {
	resp, err := s.client.Get("http://router.sim/stats")
	if err != nil {
		s.fatalf("GET /stats: %v", err)
	}
	var fs partition.FleetStats
	err = json.NewDecoder(resp.Body).Decode(&fs)
	resp.Body.Close()
	if err != nil || len(fs.Partitions) != s.active {
		s.fatalf("/stats: %d partitions (%v), want %d", len(fs.Partitions), err, s.active)
	}
	var sum paretomon.Stats
	for _, ps := range fs.Partitions {
		st := ps.Stats
		if !ps.Ready || st.Workers < 1 || st.Workers > 1 && len(st.Shards) == 0 {
			s.fatalf("/stats partition %d: ready %v, %d workers, %d shards (%s)", ps.Partition, ps.Ready, st.Workers, len(st.Shards), ps.Err)
		}
		sum.Comparisons += st.Comparisons
		sum.FilterComparisons += st.FilterComparisons
		sum.VerifyComparisons += st.VerifyComparisons
		sum.Delivered += st.Delivered
		sum.DroppedDeliveries += st.DroppedDeliveries
		sum.Workers += st.Workers
		sum.Processed = max(sum.Processed, st.Processed)
	}
	got, ref := fs.Stats, s.ref.Stats()
	got.Twins, got.Shards = 0, nil
	switch {
	case !reflect.DeepEqual(got, sum):
		s.fatalf("merged /stats %+v, want the partitions' sums and max %+v", got, sum)
	case got.Processed != ref.Processed:
		s.fatalf("merged Processed %d, reference %d", got.Processed, ref.Processed)
	case !s.grown && got.Delivered != ref.Delivered:
		s.fatalf("merged Delivered %d, reference %d", got.Delivered, ref.Delivered)
	case !s.row.ftv && !s.imported && (got.Comparisons != ref.Comparisons || got.VerifyComparisons != ref.VerifyComparisons):
		s.fatalf("merged Comparisons %d (verify %d), reference %d (verify %d)",
			got.Comparisons, got.VerifyComparisons, ref.Comparisons, ref.VerifyComparisons)
	}
}

// startWatch subscribes to a user's /deltas through the router front and
// on the reference. The user lives on a partition no fault restarts,
// since a restart ends its streams.
func (s *routedSim) startWatch() {
	for _, u := range s.com.Users() {
		if !slices.ContainsFunc(s.row.faults, func(f routedFault) bool { return f.kind == "restart" && f.part == s.rt.Owner(u) }) {
			s.watched = u
			break
		}
	}
	var err error
	s.refCh, _, err = s.ref.SubscribeDeltas(s.watched)
	resp, rerr := s.client.Get("http://router.sim/deltas/" + s.watched)
	if err != nil || rerr != nil || resp.StatusCode != http.StatusOK {
		s.fatalf("subscribing to %s: %v, %v %v", s.watched, err, resp, rerr)
	}
	s.gotCh = make(chan paretomon.FrontierDelta, 4096)
	go func() {
		defer close(s.gotCh)
		defer resp.Body.Close()
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var d paretomon.FrontierDelta
				if json.Unmarshal([]byte(data), &d) != nil {
					d.Object = "undecodable: " + data
				}
				s.gotCh <- d
			}
		}
	}()
}

// checkDeltas waits for as many events on the proxied stream as the
// reference published, then closes the watched user's partition, which
// ends the stream: the two sequences must be equal, nothing extra.
func (s *routedSim) checkDeltas() {
	var want, got []paretomon.FrontierDelta
	for open := true; open; {
		select {
		case d, ok := <-s.refCh:
			if open = ok; ok {
				want = append(want, d)
			}
		default:
			open = false
		}
	}
	if len(want) == 0 {
		s.fatalf("/deltas/%s carried no event: the history never touched the watched user", s.watched)
	}
	for len(got) < len(want) {
		select {
		case d, ok := <-s.gotCh:
			if !ok {
				s.fatalf("/deltas/%s through the router ended after %v; the reference sent %v", s.watched, got, want)
			}
			got = append(got, d)
		case <-time.After(10 * time.Second):
			s.fatalf("/deltas/%s through the router stalled after %v; the reference sent %v", s.watched, got, want)
		}
	}
	s.parts[s.rt.Owner(s.watched)].srv.Close()
	for d := range s.gotCh {
		got = append(got, d)
	}
	if !slices.EqualFunc(got, want, func(a, b paretomon.FrontierDelta) bool {
		return a.Object == b.Object && slices.Equal(a.Entered, b.Entered) && slices.Equal(a.Left, b.Left)
	}) {
		s.fatalf("/deltas/%s through the router:\n%v\nthe reference:\n%v", s.watched, got, want)
	}
}

// finish checks what only the end of a run can show.
func (s *routedSim) finish() {
	s.t.Helper()
	if !s.joinScale(false) {
		s.joinScale(true)
		s.check()
	}
	if s.row.migrator {
		s.stopped.Store(true)
		s.migWG.Wait()
		if s.migrateErr != nil || s.migrated == 0 {
			s.fatalf("%d migrations beside the history (%v)", s.migrated, s.migrateErr)
		}
	}
	var idle []string
	s.net.mu.Lock()
	for name, h := range s.net.hosts {
		if h.down || h.lose > 0 || h.loseOp > 0 {
			idle = append(idle, name)
		}
	}
	s.net.mu.Unlock()
	if len(idle) > 0 {
		s.fatalf("faults on %v never ran their course", idle)
	}
	for i := s.active; i < len(s.parts); i++ {
		if n := len(s.monitor(i).Users()); n != 0 {
			s.fatalf("retired partition %d still holds %d user(s)", i, n)
		}
	}
	if s.grown && !s.interleaved {
		s.fatalf("no batch request went out between the freeze windows of a Rebalance")
	}
	if posts, frames := s.net.posts.Load(), s.net.frames.Load(); s.row.plain && frames > 0 || !s.row.plain && posts > 0 {
		s.fatalf("%d batches went as POSTs and %d as stream frames; the partitions %s the stream", posts, frames,
			map[bool]string{true: "refuse", false: "accept"}[s.row.plain])
	}
	s.fleetClusters, s.refClusters = s.rt.Clusters(), s.ref.Clusters()
	if s.gotCh != nil {
		s.checkDeltas()
	}
}

// TestRoutedSim runs the simulator's rows. Each row's name is the one
// successor of a hand-built suite it replaced, or names what it adds.
func TestRoutedSim(t *testing.T) {
	row := func(t *testing.T, name string, r routedRow) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runRouted(t, r)
		})
	}
	// Three durable partitions: partition 1 restarts while the router
	// retries a batch, partition 2 goes down for a while, and a user's
	// /deltas stream runs through the router front all along.
	row(t, "restart", routedRow{seed: 7, parts: 3, users: 30, steps: 24, batch: 8, durable: true, watch: true,
		faults: []routedFault{{8, "restart", 1}, {16, "down", 2}}})
	// The restart row's fleet behind handlers that cannot hijack: every
	// batch is a POST, through a restart, a down partition and lost
	// replies.
	row(t, "post", routedRow{seed: 7, parts: 3, users: 30, steps: 24, batch: 8, durable: true, plain: true,
		faults: []routedFault{{4, "lost", 0}, {8, "restart", 1}, {12, "lost", 2}, {16, "down", 2}}})
	// One to four partitions of two workers each; one goes down once.
	t.Run("stats", func(t *testing.T) {
		for _, seed := range []int64{1, 7, 23} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				for parts := 1; parts <= 4; parts++ {
					row(t, fmt.Sprintf("parts=%d", parts), routedRow{seed: seed, parts: parts, users: 24, steps: 16, batch: 8,
						opts:   []paretomon.Option{paretomon.WithWorkers(2)},
						faults: []routedFault{{int(seed) % 16, "down", int(seed) % parts}}})
				}
			})
		}
	})
	// A migrator moves the first users, one at a time, beside the
	// history, under the HA lease.
	t.Run("live", func(t *testing.T) {
		for _, seed := range []int64{3, 11} {
			row(t, fmt.Sprintf("seed=%d", seed), routedRow{seed: seed, parts: 3, users: 24, steps: 24, batch: 6,
				routerID: "live", migrator: true})
		}
	})
	// 2 → 3 → 2 partitions, each Rebalance beside a history of batches.
	row(t, "scale", routedRow{seed: 13, parts: 2, users: 30, steps: 40, batch: 5, batchesOnly: true, routerID: "scale",
		faults: []routedFault{{8, "scale-out", 0}, {24, "scale-in", 0}}})
	// The orchestrator dies after a migration's import (rolled back) or
	// its ring commit (rolled forward); a fresh router reconciles.
	t.Run("migrate-crash", func(t *testing.T) {
		for _, phase := range []string{"import", "commit"} {
			row(t, phase, routedRow{seed: 5, parts: 2, users: 20, steps: 20, batch: 6,
				faults: []routedFault{{8, "crash-" + phase, 0}}})
		}
	})
	// A router dies having pushed a ring to partition 0 only.
	row(t, "half-ring", routedRow{seed: 21, parts: 2, users: 20, steps: 16, batch: 5,
		faults: []routedFault{{6, "half-ring", 0}}})
	// FilterThenVerify: each partition clusters its own users, so the
	// fleet's clusters are not the reference's; by Theorem 4.5 its
	// frontiers still are. Two migrations crash on the way, one rolled
	// forward and one back.
	t.Run("ftv", func(t *testing.T) {
		t.Parallel()
		s := runRouted(t, routedRow{seed: 9, parts: 3, users: 24, steps: 24, batch: 6, ftv: true,
			faults: []routedFault{{10, "crash-commit", 0}, {20, "crash-import", 1}}})
		if reflect.DeepEqual(s.fleetClusters, s.refClusters) {
			t.Fatalf("the fleet clusters as the reference does (%v): the row shows nothing", s.refClusters)
		}
	})
	// Lost batch replies under a window shorter than the batch: each retry
	// is answered from the partition's batch memo, not applied again.
	row(t, "lost-reply", routedRow{seed: 17, parts: 2, users: 16, steps: 30, batch: 6,
		opts:   []paretomon.Option{paretomon.WithWindow(4)},
		faults: []routedFault{{5, "lost", 0}, {12, "lost", 1}, {20, "lost", 0}}})
	// Lost replies to user arrivals and removals, under the HA lease: the
	// router re-sends each, and a retry refused as a duplicate user (an
	// arrival) or an unknown one (a removal) is the lost attempt's success.
	row(t, "lost-user", routedRow{seed: 19, parts: 2, users: 16, steps: 24, batch: 5, routerID: "lost-user",
		faults: []routedFault{{3, "lost-user", 0}, {7, "lost-user", 1}, {12, "lost-user", 1}, {16, "lost-user", 0}, {20, "lost", 1}}})
}

// FuzzRoutedSim runs one sequential history of a fuzzed shape (Baseline
// on MemStores, which can restart; windowed Baseline; FilterThenVerify;
// each over the ingest stream or, shape/3 odd, over POSTs) with up to
// three faults of any kind but the concurrent ones.
func FuzzRoutedSim(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(2), uint8(12))
	f.Add(uint8(1), int64(2), uint8(3), uint8(16))
	f.Add(uint8(2), int64(3), uint8(2), uint8(14))
	f.Add(uint8(3), int64(4), uint8(2), uint8(14))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, parts, steps uint8) {
		row := routedRow{seed: seed, parts: 1 + int(parts)%4, users: 16, steps: 4 + int(steps)%24, batch: 5,
			plain: shape/3%2 == 1}
		kinds := []string{"down", "lost", "lost-user"}
		switch shape % 3 {
		case 0:
			row.durable, kinds = true, append(kinds, "restart")
		case 1:
			row.opts = []paretomon.Option{paretomon.WithWindow(3)}
		case 2:
			row.ftv = true
		}
		if row.parts > 1 {
			kinds = append(kinds, "crash-import", "crash-commit", "half-ring")
		}
		r := rand.New(rand.NewSource(seed))
		for n := r.Intn(4); n > 0; n-- {
			row.faults = append(row.faults, routedFault{r.Intn(row.steps), kinds[r.Intn(len(kinds))], r.Intn(row.parts)})
		}
		slices.SortStableFunc(row.faults, func(a, b routedFault) int { return a.step - b.step })
		runRouted(t, row)
	})
}
