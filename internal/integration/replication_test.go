// Follower replication, end to end: a durable primary serving its WAL
// changefeed over real HTTP, read-only followers bootstrapping from its
// snapshots and tailing the feed, equivalence after randomized
// interleaved lifecycle workloads, and resume/re-bootstrap across forced
// disconnects. These are the acceptance gates for docs/REPLICATION.md.
package integration_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/server"
	"repro/internal/storage"
)

// replCommunity builds a small three-attribute community with several
// users whose preference chains overlap enough to cluster.
func replCommunity(t *testing.T) *paretomon.Community {
	t.Helper()
	s := paretomon.NewSchema("brand", "cpu", "size")
	com := paretomon.NewCommunity(s)
	chains := map[string][][]string{
		"brand": {{"Apple", "Lenovo", "Toshiba"}, {"Apple", "Sony", "Acer"}},
		"cpu":   {{"quad", "dual", "single"}, {"octa", "quad", "dual"}},
		"size":  {{"13", "15", "17"}, {"15", "13", "11"}},
	}
	for i := 0; i < 6; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for attr, cs := range chains {
			if err := u.PreferChain(attr, cs[i%2]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return com
}

// replValues are the value pools the randomized workload draws from.
var replValues = [][]string{
	{"Apple", "Lenovo", "Toshiba", "Sony", "Acer", "Asus"},
	{"octa", "quad", "dual", "single"},
	{"11", "13", "15", "17", "19"},
}

// workloadDriver drives randomized interleaved lifecycle mutations into
// a primary, keeping name counters and the alive-object list across
// bursts so repeated run() calls never collide. Expected input
// rejections (cycles, unknown tuples) are tolerated — they are not
// WAL-logged, so they do not reach followers either.
type workloadDriver struct {
	t    *testing.T
	mon  *paretomon.Monitor
	rng  *rand.Rand
	seed int64

	objSeq, userSeq int
	alive           []string
}

func newWorkload(t *testing.T, mon *paretomon.Monitor, seed int64) *workloadDriver {
	return &workloadDriver{t: t, mon: mon, rng: rand.New(rand.NewSource(seed))}
}

func (w *workloadDriver) tolerated(err error) {
	if err == nil {
		return
	}
	for _, ok := range []error{
		paretomon.ErrCycle, paretomon.ErrUnknownPreference,
		paretomon.ErrUnknownUser, paretomon.ErrUnknownObject,
	} {
		if errors.Is(err, ok) {
			return
		}
	}
	w.t.Fatalf("workload op failed: %v", err)
}

func (w *workloadDriver) randObj() paretomon.Object {
	w.objSeq++
	vals := make([]string, len(replValues))
	for d, pool := range replValues {
		vals[d] = pool[w.rng.Intn(len(pool))]
	}
	return paretomon.Object{Name: fmt.Sprintf("x%d", w.objSeq), Values: vals}
}

func (w *workloadDriver) randPref() (string, string, string) {
	attrs := []string{"brand", "cpu", "size"}
	d := w.rng.Intn(len(attrs))
	pool := replValues[d]
	return attrs[d], pool[w.rng.Intn(len(pool))], pool[w.rng.Intn(len(pool))]
}

// run applies n more mutations: ingestion (single and batch),
// preference growth and retraction, user joins and departures, object
// takedowns.
func (w *workloadDriver) run(n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		users := w.mon.Users()
		switch op := w.rng.Intn(10); {
		case op < 4: // single ingestion
			o := w.randObj()
			if _, err := w.mon.Add(o.Name, o.Values...); err != nil {
				w.t.Fatal(err)
			}
			w.alive = append(w.alive, o.Name)
		case op < 6: // batch ingestion
			batch := make([]paretomon.Object, 1+w.rng.Intn(6))
			for j := range batch {
				batch[j] = w.randObj()
				w.alive = append(w.alive, batch[j].Name)
			}
			if _, err := w.mon.AddBatch(batch); err != nil {
				w.t.Fatal(err)
			}
		case op < 7: // grow a preference relation
			attr, b, worse := w.randPref()
			w.tolerated(w.mon.AddPreference(users[w.rng.Intn(len(users))], attr, b, worse))
		case op < 8: // retract (sometimes a tuple that was never asserted)
			attr, b, worse := w.randPref()
			w.tolerated(w.mon.RetractPreference(users[w.rng.Intn(len(users))], attr, b, worse))
		case op < 9: // membership churn
			if len(users) > 3 && w.rng.Intn(2) == 0 {
				w.tolerated(w.mon.RemoveUser(users[w.rng.Intn(len(users))]))
			} else {
				w.userSeq++
				attr, b, worse := w.randPref()
				prefs := []paretomon.Preference{{Attr: attr, Better: b, Worse: worse}}
				if b == worse {
					prefs = nil
				}
				w.tolerated(w.mon.AddUser(fmt.Sprintf("joiner%d", w.userSeq), prefs))
			}
		default: // object takedown
			if len(w.alive) > 0 {
				k := w.rng.Intn(len(w.alive))
				w.tolerated(w.mon.RemoveObject(w.alive[k]))
				w.alive = append(w.alive[:k], w.alive[k+1:]...)
			}
		}
	}
}

// assertReplicaEqual pins every read surface of the follower to the
// primary: community membership, clustering, per-user frontiers,
// per-object target sets, and the work counters.
func assertReplicaEqual(t *testing.T, primary, follower *paretomon.Monitor, aliveObjs []string) {
	t.Helper()
	pu, fu := primary.Users(), follower.Users()
	if !reflect.DeepEqual(pu, fu) {
		t.Fatalf("users diverged:\nprimary:  %v\nfollower: %v", pu, fu)
	}
	if pc, fc := primary.Clusters(), follower.Clusters(); !reflect.DeepEqual(pc, fc) {
		t.Fatalf("clusters diverged:\nprimary:  %v\nfollower: %v", pc, fc)
	}
	for _, u := range pu {
		pf, err1 := primary.Frontier(u)
		ff, err2 := follower.Frontier(u)
		if err1 != nil || err2 != nil {
			t.Fatalf("frontier(%s): %v / %v", u, err1, err2)
		}
		if !reflect.DeepEqual(pf, ff) {
			t.Fatalf("frontier(%s) diverged:\nprimary:  %v\nfollower: %v", u, pf, ff)
		}
	}
	for _, o := range aliveObjs {
		if held := primary.HasObject(o); held != follower.HasObject(o) {
			t.Fatalf("%s is held by one side only (primary %v)", o, held)
		} else if !held {
			continue // expired from the window, and so forgotten by both
		}
		pt, err1 := primary.TargetsOf(o)
		ft, err2 := follower.TargetsOf(o)
		if err1 != nil || err2 != nil {
			t.Fatalf("targets(%s): %v / %v", o, err1, err2)
		}
		if !reflect.DeepEqual(pt, ft) {
			t.Fatalf("targets(%s) diverged:\nprimary:  %v\nfollower: %v", o, pt, ft)
		}
	}
	ps, fs := primary.Stats(), follower.Stats()
	if ps.Comparisons != fs.Comparisons || ps.FilterComparisons != fs.FilterComparisons ||
		ps.VerifyComparisons != fs.VerifyComparisons || ps.Delivered != fs.Delivered ||
		ps.Processed != fs.Processed {
		t.Fatalf("work counters diverged:\nprimary:  %+v\nfollower: %+v", ps, fs)
	}
}

func waitSynced(t *testing.T, follower *paretomon.Monitor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := follower.WaitSynced(ctx); err != nil {
		t.Fatalf("follower never caught up: %v (replication: %+v)", err, follower.Replication())
	}
}

// TestFollowerEquivalence bootstraps a follower from a live primary
// mid-workload (so the snapshot carries evolved state) and pins every
// read surface identical after a randomized interleaved lifecycle
// workload, across engine configurations.
func TestFollowerEquivalence(t *testing.T) {
	configs := []struct {
		name string
		opts []paretomon.Option
	}{
		{"ftv", []paretomon.Option{
			paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
			paretomon.WithBranchCut(3.0),
		}},
		{"baseline-window", []paretomon.Option{
			paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
			paretomon.WithWindow(64),
		}},
		{"ftva", []paretomon.Option{
			paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerifyApprox),
			paretomon.WithMeasure(paretomon.MeasureVectorWeightedJaccard),
			paretomon.WithBranchCut(2.5),
			paretomon.WithThetas(400, 0.5),
		}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			com := replCommunity(t)
			primary, err := paretomon.Open(com, t.TempDir(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			ts := httptest.NewServer(server.New(primary))
			defer ts.Close()

			wl := newWorkload(t, primary, 7)
			wl.run(150)
			if err := primary.Snapshot(); err != nil {
				t.Fatal(err)
			}
			wl.run(50) // WAL tail behind the snapshot

			follower, err := paretomon.OpenFollower(com, ts.URL, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			if !follower.IsFollower() {
				t.Fatal("IsFollower() = false")
			}

			wl.run(200) // live traffic while following
			waitSynced(t, follower)
			assertReplicaEqual(t, primary, follower, wl.alive)
		})
	}
}

// TestFollowerReadOnly: every mutation on a follower fails with
// ErrReadOnly and the server maps it to 403.
func TestFollowerReadOnly(t *testing.T) {
	com := replCommunity(t)
	opts := []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(3.0)}
	primary, err := paretomon.Open(com, t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(server.New(primary))
	defer ts.Close()
	if _, err := primary.Add("o1", "Apple", "quad", "13"); err != nil {
		t.Fatal(err)
	}

	follower, err := paretomon.OpenFollower(com, ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitSynced(t, follower)

	for name, err := range map[string]error{
		"Add": func() error {
			_, err := follower.Add("w1", "Apple", "quad", "13")
			return err
		}(),
		"AddBatch": func() error {
			_, err := follower.AddBatch([]paretomon.Object{{Name: "w2", Values: []string{"Apple", "quad", "13"}}})
			return err
		}(),
		"AddPreference":     follower.AddPreference("u0", "brand", "Apple", "Acer"),
		"RetractPreference": follower.RetractPreference("u0", "brand", "Apple", "Lenovo"),
		"AddUser":           follower.AddUser("w3", nil),
		"RemoveUser":        follower.RemoveUser("u0"),
		"RemoveObject":      follower.RemoveObject("o1"),
	} {
		if !errors.Is(err, paretomon.ErrReadOnly) {
			t.Errorf("%s on follower: %v, want ErrReadOnly", name, err)
		}
	}

	// Reads still serve.
	if f, err := follower.Frontier("u0"); err != nil || len(f) == 0 {
		t.Errorf("follower Frontier: %v, %v", f, err)
	}

	// And the follower's own HTTP server answers writes with 403.
	fts := httptest.NewServer(server.New(follower))
	defer fts.Close()
	resp, err := http.Post(fts.URL+"/objects", "application/json",
		strings.NewReader(`{"name":"w4","values":["Apple","quad","13"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("POST /objects on follower server: %d, want 403", resp.StatusCode)
	}
}

// restartableServer is an HTTP server on a fixed address that tests can
// kill mid-stream and bring back, simulating a primary crash or deploy.
type restartableServer struct {
	t    *testing.T
	addr string
	mu   sync.Mutex
	srv  *server.Server
	hs   *http.Server
}

func newRestartableServer(t *testing.T, mon *paretomon.Monitor) *restartableServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartableServer{t: t, addr: ln.Addr().String()}
	rs.start(ln, mon)
	t.Cleanup(rs.stop)
	return rs
}

func (rs *restartableServer) url() string { return "http://" + rs.addr }

func (rs *restartableServer) start(ln net.Listener, mon *paretomon.Monitor) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.srv = server.New(mon)
	rs.hs = &http.Server{Handler: rs.srv}
	go rs.hs.Serve(ln)
}

// stop kills the server and every open connection (feed streams die
// mid-flight, exactly like a crashed primary).
func (rs *restartableServer) stop() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.hs == nil {
		return
	}
	rs.srv.Close()
	rs.hs.Close()
	rs.hs = nil
}

// restart rebinds the same address.
func (rs *restartableServer) restart(mon *paretomon.Monitor) {
	rs.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the old listener may need a moment to release the port
		if ln, err = net.Listen("tcp", rs.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		rs.t.Fatalf("rebinding %s: %v", rs.addr, err)
	}
	rs.start(ln, mon)
}

// TestFollowerResume kills the feed mid-stream, keeps writing into the
// primary, restarts the endpoint, and asserts the follower resumes from
// its applied seq with no duplicate deliveries (each object reaches a
// subscriber at most once) and converges to the primary's exact state.
func TestFollowerResume(t *testing.T) {
	com := replCommunity(t)
	opts := []paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify), paretomon.WithBranchCut(3.0)}
	primary, err := paretomon.Open(com, t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	rs := newRestartableServer(t, primary)

	follower, err := paretomon.OpenFollower(com, rs.url(), append(opts, paretomon.WithSubscriptionBuffer(1<<14))...)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Count per-object deliveries pushed to a follower subscriber: a
	// re-applied record would deliver the same object twice.
	ch, cancelSub, err := follower.Subscribe("u0")
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()
	counts := make(map[string]int)
	var countsMu sync.Mutex
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for d := range ch {
			countsMu.Lock()
			counts[d.Object]++
			countsMu.Unlock()
		}
	}()

	wl := newWorkload(t, primary, 11)
	wl.run(120)
	waitSynced(t, follower)
	appliedBefore := follower.AppliedSeq()

	rs.stop() // the feed connection dies mid-stream
	wl.run(120)
	if follower.AppliedSeq() != appliedBefore {
		t.Fatalf("follower advanced to %d while disconnected", follower.AppliedSeq())
	}
	rs.restart(primary)

	waitSynced(t, follower)
	if follower.AppliedSeq() != primary.AppliedSeq() {
		t.Fatalf("applied %d != primary %d", follower.AppliedSeq(), primary.AppliedSeq())
	}
	assertReplicaEqual(t, primary, follower, wl.alive)

	cancelSub()
	<-subDone
	countsMu.Lock()
	defer countsMu.Unlock()
	for obj, n := range counts {
		if n > 1 {
			t.Errorf("object %s delivered %d times to the follower subscriber", obj, n)
		}
	}
	if len(counts) == 0 {
		t.Error("subscriber saw no deliveries at all")
	}
}

// TestFollowerRebootstrap retires the follower's feed position while it
// is disconnected (snapshots + prune on a small-segment store) and
// asserts it re-bootstraps from the newest snapshot and converges.
func TestFollowerRebootstrap(t *testing.T) {
	com := replCommunity(t)
	st, err := storage.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SegmentBytes = 256 // roll segments fast so Prune can retire them
	opts := []paretomon.Option{
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
		paretomon.WithBranchCut(3.0),
	}
	primary, err := paretomon.NewMonitor(com, append(opts, paretomon.WithStore(st))...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	rs := newRestartableServer(t, primary)

	wl := newWorkload(t, primary, 23)
	wl.run(60)
	follower, err := paretomon.OpenFollower(com, rs.url(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitSynced(t, follower)

	rs.stop()
	for round := 0; round < 3; round++ { // three generations: the floor passes the follower
		wl.run(80)
		if err := primary.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// The follower's position must now be below the prune floor.
	if _, _, err := primary.WALAfter(follower.AppliedSeq(), 1); !errors.Is(err, paretomon.ErrWALRetired) {
		t.Fatalf("position %d not retired (%v); test premise broken", follower.AppliedSeq(), err)
	}
	rs.restart(primary)

	waitSynced(t, follower)
	if got := follower.Replication().Rebootstraps; got < 1 {
		t.Errorf("Rebootstraps = %d, want >= 1", got)
	}
	assertReplicaEqual(t, primary, follower, wl.alive)
}
