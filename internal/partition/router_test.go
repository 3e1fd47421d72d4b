package partition_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

// testSchema builds a small community whose users disagree enough that
// frontiers differ per user: three attributes with five values each,
// user i preferring a chain rotated by i.
func testCommunity(t testing.TB, users int) *paretomon.Community {
	t.Helper()
	attrs := []string{"a", "b", "c"}
	com := paretomon.NewCommunity(paretomon.NewSchema(attrs...))
	vals := []string{"v0", "v1", "v2", "v3", "v4"}
	for i := 0; i < users; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for d, attr := range attrs {
			// Rotate the chain per (user, attribute) so profiles differ.
			chain := make([]string, len(vals))
			for j := range vals {
				chain[j] = vals[(j+i+d)%len(vals)]
			}
			if err := u.PreferChain(attr, chain...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return com
}

// stream generates count deterministic objects over the test schema.
func stream(count int) []paretomon.Object {
	vals := []string{"v0", "v1", "v2", "v3", "v4"}
	out := make([]paretomon.Object, count)
	seed := uint64(42)
	for i := range out {
		row := make([]string, 3)
		for d := range row {
			seed = seed*6364136223846793005 + 1442695040888963407
			row[d] = vals[seed>>33%uint64(len(vals))]
		}
		out[i] = paretomon.Object{Name: fmt.Sprintf("o%d", i+1), Values: row}
	}
	return out
}

// fleet is a router-fronted set of in-process partitions plus the
// single-monitor reference fed the same community.
type fleet struct {
	router *partition.Router
	ref    *paretomon.Monitor
	mons   []*paretomon.Monitor
	https  []*httptest.Server
}

func (f *fleet) close() {
	for _, s := range f.https {
		s.Close()
	}
	for _, m := range f.mons {
		_ = m.Close()
	}
	_ = f.ref.Close()
}

// startFleet carves the community into n consistent-hash slices, serves
// each from its own in-process HTTP server, and fronts them with a
// Router. Baseline algorithm so work counters partition exactly; extra
// options apply to every monitor, the reference included.
func startFleet(t *testing.T, com *paretomon.Community, n int, extra ...paretomon.Option) *fleet {
	t.Helper()
	opts := append([]paretomon.Option{paretomon.WithAlgorithm(paretomon.AlgorithmBaseline)}, extra...)
	ref, err := paretomon.NewMonitor(com, opts...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.NewPlan(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{ref: ref}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		sub := com.Subset(func(name string) bool { return plan.Owner(name) == i })
		if sub.Len() == 0 {
			t.Fatalf("partition %d owns no users — grow the test community", i)
		}
		mon, err := paretomon.NewMonitor(sub, opts...)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(server.New(mon))
		f.mons = append(f.mons, mon)
		f.https = append(f.https, hs)
		urls[i] = hs.URL
	}
	f.router = newRouter(t, partition.Config{
		URLs:        urls,
		RetryBudget: 5 * time.Second,
	})
	return f
}

// postOnly serves h as a partition that has no ingest stream (a build
// before it) would: GET /objects/stream is 404, so the router sends its
// batches as POST /objects/batch, which h sees.
func postOnly(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects/stream" {
			http.NotFound(w, r)
			return
		}
		h(w, r)
	})
}

// newRouter is partition.New with a 5 ms retry interval unless cfg sets
// one.
func newRouter(t *testing.T, cfg partition.Config) *partition.Router {
	t.Helper()
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 5 * time.Millisecond
	}
	rt, err := partition.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// assertIdentical checks the router and the reference agree on every
// frontier and every object's targets.
func assertIdentical(t *testing.T, f *fleet, objects int) {
	t.Helper()
	for _, u := range f.ref.Users() {
		want, err1 := f.ref.Frontier(u)
		got, err2 := f.router.Frontier(u)
		if err1 != nil || err2 != nil {
			t.Fatalf("frontier(%s): %v / %v", u, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frontier(%s): reference %v, router %v", u, want, got)
		}
	}
	for i := 1; i <= objects; i++ {
		name := fmt.Sprintf("o%d", i)
		want, err1 := f.ref.TargetsOf(name)
		got, err2 := f.router.TargetsOf(name)
		if err1 != nil || err2 != nil {
			t.Fatalf("targets(%s): %v / %v", name, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("targets(%s): reference %v, router %v", name, want, got)
		}
	}
}

// TestRouterMatchesSingleMonitor: the tentpole identity — a 3-partition
// fleet behind the Router delivers, frontier-for-frontier and
// counter-for-counter, what one monitor over the whole community does.
func TestRouterMatchesSingleMonitor(t *testing.T) {
	com := testCommunity(t, 30)
	f := startFleet(t, com, 3)
	defer f.close()

	objs := stream(120)
	for lo := 0; lo < len(objs); lo += 7 {
		hi := min(lo+7, len(objs))
		want, err1 := f.ref.AddBatch(objs[lo:hi])
		got, err2 := f.router.AddBatch(objs[lo:hi])
		if err1 != nil || err2 != nil {
			t.Fatalf("batch [%d,%d): %v / %v", lo, hi, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch [%d,%d): deliveries differ:\nref:    %v\nrouter: %v", lo, hi, want, got)
		}
	}
	assertIdentical(t, f, len(objs))

	// Baseline work partitions exactly: summed counters equal the
	// reference's, and the stream position is the max, not the sum.
	rs, ms := f.router.Stats(), f.ref.Stats()
	if rs.Comparisons != ms.Comparisons || rs.Delivered != ms.Delivered {
		t.Errorf("merged stats: router %+v, reference %+v", rs, ms)
	}
	if rs.Processed != ms.Processed {
		t.Errorf("Processed should be the per-partition max %d, got %d", ms.Processed, rs.Processed)
	}

	// Merged listings: same membership (sorted).
	users := f.router.Users()
	if len(users) != com.Len() {
		t.Fatalf("router lists %d users, want %d", len(users), com.Len())
	}
}

// TestRouterClustersMerge: with a clustering engine, the fleet's
// clusters are the concatenation of each partition's — covering every
// user exactly once.
func TestRouterClustersMerge(t *testing.T) {
	com := testCommunity(t, 30)
	plan, err := partition.NewPlan(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var https []*httptest.Server
	var mons []*paretomon.Monitor
	defer func() {
		for _, s := range https {
			s.Close()
		}
		for _, m := range mons {
			_ = m.Close()
		}
	}()
	urls := make([]string, 3)
	for i := range urls {
		sub := com.Subset(func(name string) bool { return plan.Owner(name) == i })
		mon, err := paretomon.NewMonitor(sub, paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(server.New(mon))
		mons = append(mons, mon)
		https = append(https, hs)
		urls[i] = hs.URL
	}
	rt := newRouter(t, partition.Config{URLs: urls})
	seen := map[string]bool{}
	clusters := rt.Clusters()
	for _, cl := range clusters {
		for _, u := range cl {
			if seen[u] {
				t.Fatalf("user %s appears in two clusters", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != com.Len() {
		t.Fatalf("clusters cover %d users, want %d", len(seen), com.Len())
	}
	wantLen := 0
	for _, m := range mons {
		wantLen += len(m.Clusters())
	}
	if len(clusters) != wantLen {
		t.Fatalf("router lists %d clusters, partitions hold %d", len(clusters), wantLen)
	}
}

// TestRouterLifecycle drives the v3 surface through the router and the
// reference in lockstep.
func TestRouterLifecycle(t *testing.T) {
	com := testCommunity(t, 24)
	f := startFleet(t, com, 3)
	defer f.close()

	objs := stream(60)
	if _, err := f.ref.AddBatch(objs); err != nil {
		t.Fatal(err)
	}
	if _, err := f.router.AddBatch(objs); err != nil {
		t.Fatal(err)
	}

	prefs := []paretomon.Preference{{Attr: "a", Better: "v3", Worse: "v0"}}
	for _, d := range []paretomon.Driver{f.ref, f.router} {
		if err := d.AddUser("newcomer", prefs); err != nil {
			t.Fatal(err)
		}
		if err := d.AddPreference("newcomer", "b", "v1", "v4"); err != nil {
			t.Fatal(err)
		}
		if err := d.RetractPreference("newcomer", "b", "v1", "v4"); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveObject("o7"); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveUser("u3"); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range f.ref.Users() {
		want, _ := f.ref.Frontier(u)
		got, err := f.router.Frontier(u)
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("frontier(%s) after lifecycle: ref %v, router %v (%v)", u, want, got, err)
		}
	}

	// Error mapping: unknown entities keep their sentinels through HTTP.
	if _, err := f.router.Frontier("u3"); !errors.Is(err, paretomon.ErrUnknownUser) {
		t.Errorf("Frontier(removed user) = %v, want ErrUnknownUser", err)
	}
	if err := f.router.RemoveObject("o7"); !errors.Is(err, paretomon.ErrUnknownObject) {
		t.Errorf("second RemoveObject = %v, want ErrUnknownObject", err)
	}
	if err := f.router.RetractPreference("newcomer", "b", "v1", "v4"); !errors.Is(err, paretomon.ErrUnknownPreference) {
		t.Errorf("second retract = %v, want ErrUnknownPreference", err)
	}
}

// TestRouterPartitionDown: a dead partition fails writes with the
// taxonomy — a *RouteError aggregating ErrPartitionDown — while
// user-scoped reads on live partitions keep working.
func TestRouterPartitionDown(t *testing.T) {
	com := testCommunity(t, 24)
	f := startFleet(t, com, 3)
	defer f.close()

	if _, err := f.router.AddBatch(stream(10)); err != nil {
		t.Fatal(err)
	}
	if err := f.router.Ready(context.Background()); err != nil {
		t.Fatalf("healthy fleet not ready: %v", err)
	}

	// Kill partition 1 and shrink the budget so the test stays fast.
	fast := newRouter(t, partition.Config{
		URLs: []string{f.https[0].URL, f.https[1].URL, f.https[2].URL},

		RetryBudget:   150 * time.Millisecond,
		RetryInterval: 10 * time.Millisecond,
	})
	f.https[1].Close()

	_, err := fast.AddBatch(stream(12)[10:])
	var re *partition.RouteError
	if !errors.As(err, &re) {
		t.Fatalf("AddBatch with a dead partition = %v, want *RouteError", err)
	}
	if !errors.Is(err, partition.ErrPartitionDown) {
		t.Fatalf("RouteError should wrap ErrPartitionDown, got %v", err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Partition != 1 {
		t.Fatalf("failures = %+v, want exactly partition 1", re.Failures)
	}

	if err := fast.Ready(context.Background()); err == nil {
		t.Fatal("Ready should fail with a dead partition")
	}

	// Users owned by live partitions still read fine; the dead
	// partition's users fail with ErrPartitionDown.
	downUsers, liveUsers := 0, 0
	for _, u := range f.ref.Users() {
		_, err := fast.Frontier(u)
		switch fast.Owner(u) {
		case 1:
			if !errors.Is(err, partition.ErrPartitionDown) {
				t.Fatalf("Frontier(%s) on dead partition = %v, want ErrPartitionDown", u, err)
			}
			downUsers++
		default:
			if err != nil {
				t.Fatalf("Frontier(%s) on live partition: %v", u, err)
			}
			liveUsers++
		}
	}
	if downUsers == 0 || liveUsers == 0 {
		t.Fatalf("test community too small: %d down, %d live", downUsers, liveUsers)
	}
}

// TestRouterRetryResume: a partition that applies a batch but loses the
// response (injected 500) must not double-apply on retry — the Router
// re-sends the batch under the same id, the partition answers it from its
// memo, and reply and fleet are exactly the reference's. Under a window
// shorter than the batch the batch's oldest objects have expired by the
// time of the retry, and their deliveries are still the ones of their
// arrival.
func TestRouterRetryResume(t *testing.T) {
	for _, window := range []int{0, 8} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) { testRouterRetryResume(t, window) })
	}
}

func testRouterRetryResume(t *testing.T, window int) {
	com := testCommunity(t, 24)
	f := startFleet(t, com, 3, paretomon.WithWindow(window))
	defer f.close()

	// Wrap partition 0 in a proxy that applies the first batch on the
	// backend but answers 500 — the "response lost in transit" crash. It
	// takes POSTs only; TestStreamFaultsApplyOnce loses a reply frame.
	var injected atomic.Int32
	backend := f.https[0].Config.Handler
	flaky := httptest.NewServer(postOnly(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/objects/batch" && injected.Add(1) == 1 {
			rec := httptest.NewRecorder()
			backend.ServeHTTP(rec, r) // backend applies the batch
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error": "injected: response lost"}`)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	rt := newRouter(t, partition.Config{
		URLs:        []string{flaky.URL, f.https[1].URL, f.https[2].URL},
		RetryBudget: 5 * time.Second,
	})

	objs := stream(40)
	want, err := f.ref.AddBatch(objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.AddBatch(objs)
	if err != nil {
		t.Fatalf("AddBatch through flaky partition: %v", err)
	}
	// Two POSTs: the one whose reply was lost, and its re-send, which the
	// partition answers from its memo without applying anything again.
	if injected.Load() != 2 {
		t.Fatalf("%d POSTs to the flaky partition, want 2", injected.Load())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("deliveries after the retry differ:\nreference %v\nrouter    %v", want, got)
	}
	// No double-apply: stream positions agree with the reference.
	if rs, ms := rt.Stats(), f.ref.Stats(); rs.Processed != ms.Processed {
		t.Fatalf("Processed after resume: router %d, reference %d", rs.Processed, ms.Processed)
	}
	assertIdentical(t, &fleet{router: rt, ref: f.ref}, 0) // frontiers only: a window expires objects
}

// TestRouterLostRequestWithHeldName: a POST lost before the partition
// saw it, for a batch naming an object the partition already holds,
// applied nothing. The retry must not read the held object as the
// newest one the batch applied: the batch is refused as a duplicate,
// and no partition ingests any of it.
func TestRouterLostRequestWithHeldName(t *testing.T) {
	for _, window := range []int{0, 8} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			com := testCommunity(t, 24)
			f := startFleet(t, com, 1, paretomon.WithWindow(window))
			defer f.close()
			var drop atomic.Bool
			backend := f.https[0].Config.Handler
			flaky := httptest.NewServer(postOnly(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/objects/batch" && drop.CompareAndSwap(true, false) {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusInternalServerError)
					fmt.Fprintln(w, `{"error": "injected: request lost"}`)
					return
				}
				backend.ServeHTTP(w, r)
			}))
			defer flaky.Close()
			rt := newRouter(t, partition.Config{
				URLs:        []string{flaky.URL},
				RetryBudget: 5 * time.Second,
			})
			objs := stream(5)
			if _, err := rt.AddBatch(objs[:3]); err != nil {
				t.Fatal(err)
			}
			// A fresh object, a held one, then another fresh one.
			drop.Store(true)
			if _, err := rt.AddBatch([]paretomon.Object{objs[3], objs[2], objs[4]}); err == nil {
				t.Fatal("AddBatch naming a held object succeeded")
			}
			if drop.Load() {
				t.Fatal("no POST was lost")
			}
			if got := f.mons[0].ObjectCount(); got != 3 {
				t.Fatalf("ObjectCount = %d after a refused batch, want 3", got)
			}
			for _, o := range objs[3:] {
				if f.mons[0].HasObject(o.Name) {
					t.Fatalf("%s of the refused batch was ingested", o.Name)
				}
			}
		})
	}
}

// TestRouterIdempotentReplay: re-sending a batch after a *RouteError —
// the recovery path the failure playbook prescribes — lands it exactly
// once: the partitions that applied it answer from their memo, the one
// that was down applies it, and the reply is the reference's. A batch
// re-sent after it succeeded is a new batch, refused as a duplicate
// exactly as a single monitor refuses it.
func TestRouterIdempotentReplay(t *testing.T) {
	com := testCommunity(t, 24)
	f := startFleet(t, com, 3)
	defer f.close()
	var down atomic.Bool
	backend := f.https[2].Config.Handler
	flaky := httptest.NewServer(refusing(backend, http.StatusServiceUnavailable, "down", func(*http.Request) bool { return down.Load() }))
	defer flaky.Close()
	rt := newRouter(t, partition.Config{
		URLs:        []string{f.https[0].URL, f.https[1].URL, flaky.URL},
		RetryBudget: 200 * time.Millisecond,
	})

	objs := stream(20)
	want, err := f.ref.AddBatch(objs)
	if err != nil {
		t.Fatal(err)
	}
	down.Store(true)
	if _, err := rt.AddBatch(objs); !errors.Is(err, partition.ErrPartitionDown) {
		t.Fatalf("AddBatch with partition 2 down = %v, want ErrPartitionDown", err)
	}
	down.Store(false)
	got, err := rt.AddBatch(objs)
	if err != nil {
		t.Fatalf("re-sending the batch after a RouteError: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("re-sent batch:\nreference %v\nrouter    %v", want, got)
	}
	f.router = rt
	assertIdentical(t, f, len(objs))

	_, errRef := f.ref.AddBatch(objs)
	_, errRt := rt.AddBatch(objs)
	var se *partition.StatusError
	if !errors.Is(errRef, paretomon.ErrDuplicateObject) || !errors.As(errRt, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("re-sending a batch that succeeded: reference %v, router %v; want a duplicate, a 400", errRef, errRt)
	}
	assertIdentical(t, f, len(objs))
}
