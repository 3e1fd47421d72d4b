package partition_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

// TestRingValidation covers the Ring value type: construction errors,
// pin-versus-plan ownership, and the wire roundtrip.
func TestRingValidation(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	if _, err := partition.NewRing(0, 3, 0, urls, nil); err == nil {
		t.Error("version 0 accepted; it is reserved for legacy mode")
	}
	if _, err := partition.NewRing(1, 4, 0, urls, nil); err == nil {
		t.Error("parts > len(urls) accepted")
	}
	if _, err := partition.NewRing(1, 0, 0, urls, nil); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := partition.NewRing(1, 3, 0, urls, map[string]int{"u1": 3}); err == nil {
		t.Error("pin beyond the URL list accepted")
	}

	rg, err := partition.NewRing(7, 2, 0, urls, map[string]int{"u1": 2})
	if err != nil {
		t.Fatal(err)
	}
	// The pinned user resolves to the pin (a retiring partition beyond
	// Parts is legal), everyone else to the plan — and PlanOwner ignores
	// the pin.
	if got := rg.Owner("u1"); got != 2 {
		t.Errorf("pinned owner = %d, want 2", got)
	}
	if got := rg.PlanOwner("u1"); got < 0 || got >= 2 {
		t.Errorf("plan owner = %d, want a plan partition", got)
	}
	for _, u := range []string{"u2", "u3", "u4"} {
		if got := rg.Owner(u); got != rg.PlanOwner(u) {
			t.Errorf("unpinned %s: owner %d != plan owner %d", u, got, rg.PlanOwner(u))
		}
	}

	back, err := partition.DecodeRing(rg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != rg.Version || back.Parts != rg.Parts || back.VNodes != rg.VNodes ||
		!reflect.DeepEqual(back.URLs, rg.URLs) || !reflect.DeepEqual(back.Moves, rg.Moves) {
		t.Errorf("roundtrip mangled the ring: %+v vs %+v", back, rg)
	}
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		if back.Owner(u) != rg.Owner(u) {
			t.Errorf("roundtrip changed owner(%s): %d vs %d", u, back.Owner(u), rg.Owner(u))
		}
	}
}

// TestDecodeRingRefusesOversizedPlans: a ring's plan size comes from
// outside (PUT /ring). A vnodes count past the ring-point cap, or one
// whose product with parts is, is refused before anything is allocated
// for it, and a partition answers such a PUT with 400.
func TestDecodeRingRefusesOversizedPlans(t *testing.T) {
	oversized := []string{
		`{"version":1,"parts":1,"vnodes":4611686018427387904,"urls":["x"]}`, // parts × vnodes past int
		`{"version":1,"parts":1,"vnodes":3000000,"urls":["x"]}`,
		`{"version":1,"parts":2,"vnodes":40000,"urls":["x","y"]}`, // each factor fits, the product does not
	}
	for _, payload := range oversized {
		if _, err := partition.DecodeRing([]byte(payload)); err == nil {
			t.Errorf("DecodeRing accepted %s", payload)
		}
	}
	if _, err := partition.DecodeRing([]byte(`{"version":1,"parts":1,"vnodes":65536,"urls":["x"]}`)); err != nil {
		t.Errorf("a plan at the cap was refused: %v", err)
	}

	f := startFleet(t, testCommunity(t, 2), 1)
	defer f.close()
	for _, payload := range oversized {
		req, err := http.NewRequest(http.MethodPut, f.https[0].URL+"/ring", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT /ring %s: status %d, want 400", payload, resp.StatusCode)
		}
	}
}

// pushRing installs rg on a partition out-of-band, simulating another
// router's commit this Router has not heard about.
func pushRing(t *testing.T, url string, rg *partition.Ring) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url+"/ring", bytes.NewReader(rg.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pushing ring v%d to %s: status %d", rg.Version, url, resp.StatusCode)
	}
}

// bumpRing crafts the fleet ring's successor (same topology, version+1)
// and installs it on every partition behind the Router's back.
func bumpRing(t *testing.T, f *fleet) *partition.Ring {
	t.Helper()
	cur := f.router.Ring()
	if cur == nil {
		t.Fatal("no ring installed; bootstrap first")
	}
	next, err := partition.NewRing(cur.Version+1, cur.Parts, cur.VNodes, cur.URLs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range f.https {
		pushRing(t, hs.URL, next)
	}
	return next
}

// TestRingVersionRefetchRetry: every mutating path must survive another
// router committing a newer ring — the partition's 409 carries the
// installed version, the Router refetches and retries. Covered paths:
// the fan-out batch, the owner-routed op, and a cold router that has no
// ring at all.
func TestRingVersionRefetchRetry(t *testing.T) {
	com := testCommunity(t, 12)
	f := startFleet(t, com, 2)
	defer f.close()

	// Bootstrap ring v1 (a same-topology rebalance installs it).
	if _, err := f.router.Rebalance(context.Background(), fleetURLs(f), partition.RebalanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if rg := f.router.Ring(); rg == nil || rg.Version != 1 {
		t.Fatalf("bootstrap ring %+v, want version 1", f.router.Ring())
	}

	// Fan-out heal: the fleet moves to v2 behind the Router's back; its
	// next batch is rejected 409 by every partition, refetched, retried.
	bumpRing(t, f)
	objs := stream(10)
	want, err1 := f.ref.AddBatch(objs)
	got, err2 := f.router.AddBatch(objs)
	if err1 != nil || err2 != nil {
		t.Fatalf("batch through stale router: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-heal deliveries differ:\nreference %v\nrouter    %v", want, got)
	}
	if rg := f.router.Ring(); rg.Version != 2 {
		t.Errorf("router ring = v%d after heal, want 2", rg.Version)
	}

	// Owner-op heal: same dance on the single-owner path.
	bumpRing(t, f)
	prefs := []paretomon.Preference{{Attr: "a", Better: "v1", Worse: "v0"}}
	if err := f.ref.AddUser("u90", prefs); err != nil {
		t.Fatal(err)
	}
	if err := f.router.AddUser("u90", prefs); err != nil {
		t.Fatalf("AddUser through stale router: %v", err)
	}
	if rg := f.router.Ring(); rg.Version != 3 {
		t.Errorf("router ring = v%d after owner-op heal, want 3", rg.Version)
	}

	// Cold-router heal: a fresh router sends NO version header, which a
	// ringed partition rejects just like a stale one. Its first write, a
	// fresh batch, adopts v3 and lands; so does the owner op after it.
	rtB := newRouter(t, partition.Config{
		URLs:        fleetURLs(f),
		RetryBudget: 5 * time.Second,
	})
	defer rtB.Close()
	if rg := rtB.Ring(); rg != nil {
		t.Fatalf("fresh router starts with ring %+v", rg)
	}
	more := stream(15)[10:]
	want, err1 = f.ref.AddBatch(more)
	got, err2 = rtB.AddBatch(more)
	if err1 != nil || err2 != nil {
		t.Fatalf("batch through cold router: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cold-router deliveries differ:\nreference %v\nrouter    %v", want, got)
	}
	if rg := rtB.Ring(); rg == nil || rg.Version != 3 {
		t.Errorf("cold router ring = %+v after headerless heal, want version 3", rtB.Ring())
	}
	if err := f.ref.AddUser("u91", prefs); err != nil {
		t.Fatal(err)
	}
	if err := rtB.AddUser("u91", prefs); err != nil {
		t.Fatalf("AddUser through cold router: %v", err)
	}
	assertIdentical(t, f, 15)
}

// faultyFleet serves plan's slices of com from Baseline monitors behind
// in-process HTTP servers, partition i's handler wrapped by wrap(i, h) so
// a test can inject faults. Everything closes with the test.
func faultyFleet(t *testing.T, com *paretomon.Community, plan *partition.Plan, wrap func(i int, h http.Handler) http.Handler) (mons []*paretomon.Monitor, urls []string) {
	t.Helper()
	for i := range plan.Partitions() {
		sub := com.Subset(func(name string) bool { return plan.Owner(name) == i })
		if sub.Len() == 0 {
			t.Fatalf("partition %d owns no users", i)
		}
		mon, err := paretomon.NewMonitor(sub, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mon.Close() })
		hs := httptest.NewServer(wrap(i, server.New(mon)))
		t.Cleanup(hs.Close)
		mons, urls = append(mons, mon), append(urls, hs.URL)
	}
	return mons, urls
}

// refusing answers status and msg to the requests when picks and passes
// the others to h.
func refusing(h http.Handler, status int, msg string, when func(*http.Request) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if when(r) {
			http.Error(w, msg, status)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// fleetURLs lists the fleet's partition base URLs.
func fleetURLs(f *fleet) []string {
	urls := make([]string, len(f.https))
	for i, hs := range f.https {
		urls[i] = hs.URL
	}
	return urls
}

// TestRouterLeaseMutualExclusion: with Config.RouterID set, mutations
// acquire the fleet write lease from partition 0. A second router is
// fenced out until the holder releases (Close) or its TTL lapses, and
// every handover bumps the fencing epoch.
func TestRouterLeaseMutualExclusion(t *testing.T) {
	com := testCommunity(t, 12)
	f := startFleet(t, com, 2)
	defer f.close()

	const ttl = 250 * time.Millisecond
	mk := func(id string) *partition.Router {
		return newRouter(t, partition.Config{
			URLs:        fleetURLs(f),
			RetryBudget: 2 * time.Second,
			RouterID:    id,
			LeaseTTL:    ttl,
		})
	}
	ra, rb, rc := mk("ra"), mk("rb"), mk("rc")
	defer rb.Close()
	defer rc.Close()

	prefs := []paretomon.Preference{{Attr: "a", Better: "v1", Worse: "v0"}}
	if err := ra.AddUser("u80", prefs); err != nil {
		t.Fatalf("first writer blocked: %v", err)
	}
	if ra.LeaseEpoch() == 0 {
		t.Fatal("holder reports epoch 0")
	}
	if err := rb.AddUser("u81", prefs); !errors.Is(err, partition.ErrNotLeaseHolder) {
		t.Fatalf("standby write = %v, want ErrNotLeaseHolder", err)
	}

	// Clean handover: Close releases the lease and the standby takes it.
	if err := ra.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rb.AddUser("u81", prefs); err != nil {
		t.Fatalf("standby after release: %v", err)
	}
	epochB := rb.LeaseEpoch()
	if epochB == 0 {
		t.Fatal("new holder reports epoch 0")
	}
	if err := rc.AddUser("u82", prefs); !errors.Is(err, partition.ErrNotLeaseHolder) {
		t.Fatalf("third router while lease live = %v, want ErrNotLeaseHolder", err)
	}

	// Crash handover: the holder goes silent (no renewal) and the TTL
	// judges it dead — partition 0's clock, not the standby's.
	time.Sleep(ttl + 50*time.Millisecond)
	if err := rc.AddUser("u82", prefs); err != nil {
		t.Fatalf("takeover after TTL expiry: %v", err)
	}
	if rc.LeaseEpoch() <= epochB {
		t.Errorf("takeover epoch %d, want > %d (fencing must advance)", rc.LeaseEpoch(), epochB)
	}
}

// TestRouterRetryBudgetPerPartition: one partition flapping must cost
// one retry budget, not one per healthy partition — budgets are
// per-partition and concurrent. The healthy partitions land the batch
// on the first attempt, the down one exhausts its own budget, and the
// re-issue after recovery, under the same batch id, lands exactly once.
func TestRouterRetryBudgetPerPartition(t *testing.T) {
	com := testCommunity(t, 12)
	plan, err := partition.NewPlan(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var healthy atomic.Bool
	mons, urls := faultyFleet(t, com, plan, func(i int, h http.Handler) http.Handler {
		if i != 2 {
			return h
		}
		return refusing(h, http.StatusServiceUnavailable, "flapping", func(*http.Request) bool { return !healthy.Load() })
	})

	const budget = 500 * time.Millisecond
	rt := newRouter(t, partition.Config{
		URLs:          urls,
		RetryBudget:   budget,
		RetryInterval: 20 * time.Millisecond,
	})
	defer rt.Close()

	objs := stream(6)
	want, err := ref.AddBatch(objs)
	if err != nil {
		t.Fatal(err)
	}
	startT := time.Now()
	_, err = rt.AddBatch(objs)
	elapsed := time.Since(startT)
	if !errors.Is(err, partition.ErrPartitionDown) {
		t.Fatalf("batch with partition 2 down = %v, want ErrPartitionDown", err)
	}
	var re *partition.RouteError
	if !errors.As(err, &re) {
		t.Fatalf("error %T, want *RouteError", err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Partition != 2 {
		t.Fatalf("failures %v, want exactly partition 2", re.Failures)
	}
	// The regression gate: were budgets shared or sequential, the two
	// healthy partitions' work would stack onto the flapper's clock.
	if elapsed > 3*budget {
		t.Errorf("fan-out with one down partition took %v, want ≈ one budget (%v)", elapsed, budget)
	}
	// The healthy partitions hold the batch despite the fleet error.
	for i := 0; i < 2; i++ {
		if _, err := mons[i].TargetsOf("o1"); err != nil {
			t.Errorf("healthy partition %d does not hold o1: %v", i, err)
		}
	}

	// Recovery: the same batch re-issued lands everywhere — the healthy
	// partitions answer it from their memo — with the reference's reply,
	// and the fleet is identical to the reference.
	healthy.Store(true)
	got, err := rt.AddBatch(objs)
	if err != nil {
		t.Fatalf("re-issue after recovery: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("re-issued deliveries:\nreference %v\nrouter    %v", want, got)
	}
	assertIdentical(t, &fleet{router: rt, ref: ref}, len(objs))
}

// TestLeaseTTLServerClamp: a misconfigured router asking for an
// enormous TTL must not be able to lock the fleet's write path until
// the heat death of the lease — partition 0 clamps the TTL and echoes
// the effective value in the grant, which is what routers fence by.
func TestLeaseTTLServerClamp(t *testing.T) {
	com := testCommunity(t, 4)
	f := startFleet(t, com, 1)
	defer f.close()

	resp, err := http.Post(f.https[0].URL+"/lease", "application/json",
		strings.NewReader(`{"id":"greedy","ttl_ms":86400000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire status %d", resp.StatusCode)
	}
	var grant struct {
		ID        string `json:"id"`
		TTLMillis int64  `json:"ttl_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	if want := (5 * time.Minute).Milliseconds(); grant.TTLMillis != want {
		t.Errorf("granted ttl_ms = %d, want clamped to %d", grant.TTLMillis, want)
	}
	// Release so the day-long request leaves no residue for other tests.
	req, _ := http.NewRequest(http.MethodDelete, f.https[0].URL+"/lease?id=greedy", nil)
	if dr, err := http.DefaultClient.Do(req); err == nil {
		dr.Body.Close()
	}
}

// freshUserOwnedBy returns an unregistered user name the plan assigns
// to partition idx, so a test can aim a mutation at a chosen partition.
func freshUserOwnedBy(plan *partition.Plan, idx int, tag string) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("%s%d", tag, i); plan.Owner(name) == idx {
			return name
		}
	}
}

// TestMutationFencedByLeaseLoss: the fencing half of the lease
// contract. A mutation may retry for the full budget — far longer than
// one lease TTL — but it must renew the lease as it goes, and the
// moment the lease is lost to another holder it must abort with
// ErrNotLeaseHolder instead of keeping attempts in flight under
// someone else's tenure (the pre-fix behavior: retry blindly for the
// whole budget and land a write after a standby took over).
func TestMutationFencedByLeaseLoss(t *testing.T) {
	com := testCommunity(t, 12)
	plan, err := partition.NewPlan(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var denyLease, flapping atomic.Bool
	_, urls := faultyFleet(t, com, plan, func(i int, h http.Handler) http.Handler {
		if i == 0 { // the lease arbiter: simulate another router taking over
			return refusing(h, http.StatusConflict, `{"error":"lease held by \"other\" for another 9999ms"}`, func(r *http.Request) bool {
				return denyLease.Load() && r.Method == http.MethodPost && r.URL.Path == "/lease"
			})
		}
		// The mutation target: slow partition, alive but rejecting.
		return refusing(h, http.StatusServiceUnavailable, "flapping", func(r *http.Request) bool {
			return flapping.Load() && r.Method != http.MethodGet
		})
	})

	const ttl = 200 * time.Millisecond
	const budget = 6 * time.Second
	rt := newRouter(t, partition.Config{
		URLs:        urls,
		RetryBudget: budget,
		RouterID:    "ra",
		LeaseTTL:    ttl,
	})
	defer rt.Close()

	// Warm up: acquire the lease while the fleet is healthy.
	prefs := []paretomon.Preference{{Attr: "a", Better: "v1", Worse: "v0"}}
	if err := rt.AddUser(freshUserOwnedBy(plan, 1, "wa"), prefs); err != nil {
		t.Fatalf("warm-up mutation: %v", err)
	}

	// Partition 1 starts flapping and, before the router can renew, the
	// lease moves to another holder.
	flapping.Store(true)
	denyLease.Store(true)
	startT := time.Now()
	err = rt.AddUser(freshUserOwnedBy(plan, 1, "fb"), prefs)
	elapsed := time.Since(startT)
	if !errors.Is(err, partition.ErrNotLeaseHolder) {
		t.Fatalf("fenced mutation = %v, want ErrNotLeaseHolder", err)
	}
	// The abort must come from the lease fence (≈ one TTL), not from
	// grinding through the whole retry budget.
	if elapsed > budget/2 {
		t.Errorf("fenced mutation took %v, want ≈ one lease TTL (%v)", elapsed, ttl)
	}
}

// TestMutationOutlivesTTLByRenewing: the other half of the fence — a
// mutation whose target partition stays down longer than one lease TTL
// must still succeed within the retry budget, because the retry loop
// renews the lease at each fence boundary instead of giving up.
func TestMutationOutlivesTTLByRenewing(t *testing.T) {
	com := testCommunity(t, 12)
	plan, err := partition.NewPlan(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flapping atomic.Bool
	flapping.Store(true)
	_, urls := faultyFleet(t, com, plan, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return refusing(h, http.StatusServiceUnavailable, "flapping", func(r *http.Request) bool {
			return flapping.Load() && r.Method != http.MethodGet
		})
	})

	const ttl = 150 * time.Millisecond
	rt := newRouter(t, partition.Config{
		URLs:        urls,
		RetryBudget: 6 * time.Second,
		RouterID:    "ra",
		LeaseTTL:    ttl,
	})
	defer rt.Close()

	// Heal the partition only after several TTLs have lapsed: the old
	// entry-only lease check would have let the attempt run unfenced;
	// a naive deadline cap would have failed it at the first TTL.
	go func() {
		time.Sleep(3 * ttl)
		flapping.Store(false)
	}()
	prefs := []paretomon.Preference{{Attr: "a", Better: "v1", Worse: "v0"}}
	startT := time.Now()
	if err := rt.AddUser(freshUserOwnedBy(plan, 1, "rn"), prefs); err != nil {
		t.Fatalf("mutation across %v of flapping: %v", 3*ttl, err)
	}
	if elapsed := time.Since(startT); elapsed < 3*ttl {
		t.Errorf("mutation returned in %v, before the partition healed at %v", elapsed, 3*ttl)
	}
}

// TestStandbyReadsFollowRingFlip: a standby HA router never mutates, so
// it cannot learn of ring flips through the write path's 409s. When the
// active router migrates a user, the standby's owner-routed reads must
// chase the flip — a 404 from the old owner triggers one ring refresh
// and a re-resolve — instead of reporting ErrUnknownUser for a user
// that exists until failover.
func TestStandbyReadsFollowRingFlip(t *testing.T) {
	com := testCommunity(t, 12)
	f := startFleet(t, com, 2)
	defer f.close()
	mk := func(id string) *partition.Router {
		return newRouter(t, partition.Config{
			URLs:        fleetURLs(f),
			RetryBudget: 5 * time.Second,
			RouterID:    id,
			LeaseTTL:    2 * time.Second,
		})
	}
	ra, rb := mk("ra"), mk("rb")
	defer ra.Close()
	defer rb.Close()

	// Active router takes the lease and gives the frontiers substance.
	if _, err := ra.AddBatch(stream(8)); err != nil {
		t.Fatal(err)
	}
	const u = "u0"
	want, err := rb.Frontier(u)
	if err != nil {
		t.Fatalf("standby read before flip: %v", err)
	}

	from := ra.Owner(u)
	to := 1 - from
	if err := ra.Migrate([]string{u}, from, to); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// The standby still routes by its stale view; the read must heal.
	got, err := rb.Frontier(u)
	if err != nil {
		t.Fatalf("standby read after flip: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("standby frontier(%s) after flip %v, want %v", u, got, want)
	}
	if rb.Owner(u) != to {
		t.Errorf("standby owner(%s) = %d after heal, want %d", u, rb.Owner(u), to)
	}
	// A genuinely unknown user still reads as unknown (one refresh, no
	// infinite chase).
	if _, err := rb.Frontier("nobody"); !errors.Is(err, paretomon.ErrUnknownUser) {
		t.Errorf("frontier(nobody) = %v, want ErrUnknownUser", err)
	}
}

// TestRebalanceAbortsWhenUserListUnreachable: the no-lost-users
// guarantee. The pin set in Rebalance phase B must come from a strict
// fleet-wide user listing — if a partition cannot enumerate its users,
// the rebalance must abort rather than plan around an empty list
// (pre-fix, a scale-in would commit the final ring with the down
// partition's users never migrated: stranded on a retired partition,
// vanished from the community, no error anywhere).
func TestRebalanceAbortsWhenUserListUnreachable(t *testing.T) {
	com := testCommunity(t, 12)
	plan, err := partition.NewPlan(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var usersCalls atomic.Int64
	mons, urls := faultyFleet(t, com, plan, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		// The first GET /users (the pre-migration Reconcile) succeeds;
		// the partition then goes dark for listings only — everything
		// else (readyz, ring, reads) keeps answering, which is exactly
		// the window the seeded bug silently planned through.
		return refusing(h, http.StatusServiceUnavailable, "listing unavailable", func(r *http.Request) bool {
			return r.Method == http.MethodGet && r.URL.Path == "/users" && usersCalls.Add(1) > 1
		})
	})

	rt := newRouter(t, partition.Config{
		URLs:        urls,
		RetryBudget: 400 * time.Millisecond,
	})
	defer rt.Close()

	_, err = rt.Rebalance(context.Background(), urls[:1], partition.RebalanceOptions{})
	if err == nil {
		t.Fatal("scale-in completed with partition 1's user list unreachable — its users would be stranded")
	}
	if !errors.Is(err, partition.ErrPartitionDown) {
		t.Fatalf("rebalance error = %v, want ErrPartitionDown", err)
	}
	// Nothing moved and nothing was lost: both partitions hold exactly
	// their original slices and the ring still spans both.
	for i, mon := range mons {
		for _, u := range mon.Users() {
			if plan.Owner(u) != i {
				t.Errorf("user %q drifted to partition %d mid-abort", u, i)
			}
		}
	}
	if n := len(mons[1].Users()); n == 0 {
		t.Error("partition 1 lost its users")
	}
	if rg := rt.Ring(); rg == nil || rg.Parts != 2 {
		t.Errorf("ring after abort %+v, want 2 live partitions", rg)
	}
}
