package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// newFleet stands up a TenantServer over a fresh registry with the
// given tenants, all sharing a two-attribute schema and one user u0.
func newFleet(t *testing.T, topts []tenant.Option, sopts []server.TenantOption, specs ...tenant.Spec) (*httptest.Server, *tenant.Registry) {
	t.Helper()
	reg, err := tenant.Open(t.TempDir(), topts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	for _, spec := range specs {
		if _, err := reg.Create(spec); err != nil {
			t.Fatalf("create %q: %v", spec.Name, err)
		}
	}
	srv := server.NewTenantServer(reg, sopts...)
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, reg
}

func fleetSpec(name string) tenant.Spec {
	return tenant.Spec{
		Name:   name,
		Schema: []string{"brand", "CPU"},
		Users: []tenant.UserSpec{{
			Name: "u0",
			Preferences: []tenant.PrefSpec{
				{Attribute: "brand", Better: "Apple", Worse: "Lenovo"},
				{Attribute: "CPU", Better: "quad", Worse: "dual"},
			},
		}},
	}
}

// doReq is doJSON with an optional bearer token, returning the status.
func doReq(t *testing.T, method, url, token, body string) (int, map[string]any) {
	t.Helper()
	var header []string
	if token != "" {
		header = []string{"Authorization", "Bearer " + token}
	}
	resp, out := doJSON(t, method, url, body, header...)
	return resp.StatusCode, out
}

func TestTenantServerIsolation(t *testing.T) {
	ts, _ := newFleet(t, nil, nil, fleetSpec("alpha"), fleetSpec("beta"))

	code, _ := doReq(t, "POST", ts.URL+"/t/alpha/objects", "", `{"name":"o1","values":["Apple","quad"]}`)
	if code != 200 {
		t.Fatalf("alpha add: %d", code)
	}
	// alpha sees its object; beta does not.
	code, body := doReq(t, "GET", ts.URL+"/t/alpha/frontier/u0", "", "")
	if code != 200 || fmt.Sprint(body["frontier"]) != "[o1]" {
		t.Errorf("alpha frontier: %d %v", code, body)
	}
	code, body = doReq(t, "GET", ts.URL+"/t/beta/frontier/u0", "", "")
	if code != 200 || fmt.Sprint(body["frontier"]) != "[]" {
		t.Errorf("beta frontier leaked: %d %v", code, body)
	}
	code, body = doReq(t, "GET", ts.URL+"/t/beta/targets/o1", "", "")
	if code != 404 {
		t.Errorf("beta sees alpha's object: %d %v", code, body)
	}
	// Unknown tenants are 404, not a fallthrough to anything.
	code, _ = doReq(t, "GET", ts.URL+"/t/gamma/users", "", "")
	if code != 404 {
		t.Errorf("unknown tenant: %d", code)
	}
}

func TestTenantServerAuth(t *testing.T) {
	spec := fleetSpec("locked")
	spec.Token = "s3cret"
	ts, _ := newFleet(t, nil, nil, spec, fleetSpec("open"))

	if code, _ := doReq(t, "GET", ts.URL+"/t/locked/users", "", ""); code != 401 {
		t.Errorf("no token: %d, want 401", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/t/locked/users", "wrong", ""); code != 401 {
		t.Errorf("wrong token: %d, want 401", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/t/locked/users", "s3cret", ""); code != 200 {
		t.Errorf("right token: %d, want 200", code)
	}
	// SSE clients cannot set headers; the query credential works too.
	if code, _ := doReq(t, "GET", ts.URL+"/t/locked/users?access_token=s3cret", "", ""); code != 200 {
		t.Errorf("query token: %d, want 200", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/t/open/users", "", ""); code != 200 {
		t.Errorf("open tenant: %d, want 200", code)
	}
}

func TestTenantServerQuota429(t *testing.T) {
	spec := fleetSpec("small")
	spec.Quotas.MaxObjects = 2
	ts, _ := newFleet(t, nil, nil, spec)
	base := ts.URL + "/t/small"

	code, _ := doReq(t, "POST", base+"/objects", "", `{"name":"o1","values":["Apple","quad"]}`)
	if code != 200 {
		t.Fatalf("first add: %d", code)
	}
	// A batch that would cross the limit is refused whole with 429…
	code, body := doReq(t, "POST", base+"/objects/batch", "",
		`{"objects":[{"name":"o2","values":["Apple","dual"]},{"name":"o3","values":["Lenovo","quad"]}]}`)
	if code != 429 {
		t.Fatalf("over-quota batch: %d %v, want 429", code, body)
	}
	if msg := fmt.Sprint(body["error"]); !strings.Contains(msg, "o3") || !strings.Contains(msg, "quota") {
		t.Errorf("429 body does not locate the offending object: %q", msg)
	}
	// …and refused atomically: o2 was not ingested either.
	if code, _ = doReq(t, "GET", base+"/targets/o2", "", ""); code != 404 {
		t.Errorf("refused batch leaked o2: %d", code)
	}
	// The remaining slot still works; removal frees capacity.
	if code, _ = doReq(t, "POST", base+"/objects", "", `{"name":"o2","values":["Apple","dual"]}`); code != 200 {
		t.Fatalf("last slot: %d", code)
	}
	if code, _ = doReq(t, "POST", base+"/objects", "", `{"name":"o4","values":["Lenovo","dual"]}`); code != 429 {
		t.Errorf("full tenant admitted an object: %d", code)
	}
	if code, _ = doReq(t, "DELETE", base+"/objects/o1", "", ""); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ = doReq(t, "POST", base+"/objects", "", `{"name":"o4","values":["Lenovo","dual"]}`); code != 200 {
		t.Errorf("slot not freed by delete: %d", code)
	}
	// A failed add (duplicate name) must roll its reservation back, not
	// leak quota: at 1/2 used, repeated duplicate 400s must leave the
	// last slot available.
	if code, _ = doReq(t, "DELETE", base+"/objects/o4", "", ""); code != 200 {
		t.Fatalf("delete o4: %d", code)
	}
	for i := 0; i < 3; i++ {
		if code, _ = doReq(t, "POST", base+"/objects", "", `{"name":"o2","values":["Lenovo","dual"]}`); code != 400 {
			t.Fatalf("duplicate add: %d, want 400", code)
		}
	}
	if code, _ = doReq(t, "POST", base+"/objects", "", `{"name":"o5","values":["Lenovo","dual"]}`); code != 200 {
		t.Errorf("duplicate adds leaked reservations: %d", code)
	}
}

// TestTenantServerQuotaReplay: a batch that filled an append-only
// tenant's max_objects, re-sent under its batch id, is answered from the
// monitor's memo: the names it holds are not charged again, so the
// retry gets the original reply instead of a 429.
func TestTenantServerQuotaReplay(t *testing.T) {
	spec := fleetSpec("small")
	spec.Quotas.MaxObjects = 2
	ts, _ := newFleet(t, nil, nil, spec)
	url := ts.URL + "/t/small/objects/batch"
	const body = `{"objects":[{"name":"o1","values":["Apple","quad"]},{"name":"o2","values":["Lenovo","dual"]}]}`
	first := doRaw(t, "POST", url, body, "feed/1")
	if first.status != 200 {
		t.Fatalf("batch filling the quota: %+v", first)
	}
	if again := doRaw(t, "POST", url, body, "feed/1"); again != first {
		t.Fatalf("retry answered %+v, first %+v", again, first)
	}
	if fresh := doRaw(t, "POST", url, `{"objects":[{"name":"o3","values":["Apple","dual"]}]}`, "feed/2"); fresh.status != 429 {
		t.Fatalf("a new object past the quota: %+v, want 429", fresh)
	}
}

func TestTenantServerUserQuota(t *testing.T) {
	spec := fleetSpec("u")
	spec.Quotas.MaxUsers = 2
	ts, _ := newFleet(t, nil, nil, spec)
	base := ts.URL + "/t/u"

	if code, _ := doReq(t, "POST", base+"/users", "", `{"name":"u1","preferences":[]}`); code != 200 {
		t.Fatalf("second user: %d", code)
	}
	if code, _ := doReq(t, "POST", base+"/users", "", `{"name":"u2","preferences":[]}`); code != 429 {
		t.Errorf("third user: %d, want 429", code)
	}
	if code, _ := doReq(t, "DELETE", base+"/users/u1", "", ""); code != 200 {
		t.Fatalf("remove user: %d", code)
	}
	if code, _ := doReq(t, "POST", base+"/users", "", `{"name":"u2","preferences":[]}`); code != 200 {
		t.Errorf("slot not freed: %d", code)
	}
}

func TestTenantServerAdminCRUD(t *testing.T) {
	ts, _ := newFleet(t, nil,
		[]server.TenantOption{server.WithAdminToken("admintok")},
		fleetSpec("alpha"))
	admin := ts.URL + "/admin/tenants"

	// Admin surface is fenced off from non-admin callers.
	if code, _ := doReq(t, "GET", admin, "wrong", ""); code != 401 {
		t.Errorf("bad admin token: %d, want 401", code)
	}

	spec := fleetSpec("beta")
	spec.Token = "beta-tok"
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := doReq(t, "POST", admin, "admintok", string(body)); code != 201 {
		t.Fatalf("create: %d", code)
	}
	if code, _ := doReq(t, "POST", admin, "admintok", string(body)); code != 409 {
		t.Errorf("duplicate create: %d, want 409", code)
	}
	resp, data := send(t, "GET", admin, "", "Authorization", "Bearer admintok")
	var specs []tenant.Spec
	if decode(t, data, &specs); resp.StatusCode != 200 || len(specs) != 2 {
		t.Fatalf("list: %d %v", resp.StatusCode, specs)
	}
	for _, s := range specs {
		if s.Token != "" {
			t.Errorf("list leaks token for %q", s.Name)
		}
	}
	// The new tenant serves immediately, under its token.
	if code, _ := doReq(t, "GET", ts.URL+"/t/beta/users", "beta-tok", ""); code != 200 {
		t.Errorf("created tenant not serving: %d", code)
	}

	code, out := doReq(t, "POST", admin+"/beta/rotate-token", "admintok", "")
	tok, _ := out["token"].(string)
	if code != 200 || tok == "" {
		t.Fatalf("rotate: %d %v", code, out)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/t/beta/users", "beta-tok", ""); code != 401 {
		t.Errorf("old token survives rotation: %d", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/t/beta/users", tok, ""); code != 200 {
		t.Errorf("rotated token refused: %d", code)
	}

	if code, _ := doReq(t, "DELETE", admin+"/beta", "admintok", ""); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doReq(t, "DELETE", admin+"/beta", "admintok", ""); code != 404 {
		t.Errorf("double delete: %d, want 404", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/t/beta/users", tok, ""); code != 404 {
		t.Errorf("deleted tenant still serving: %d", code)
	}
}

// sseOpen starts an SSE stream and returns its response plus a channel
// that closes when the stream ends (server-side cancellation included).
func sseOpen(t *testing.T, url string) (done chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	resp := openStream(t, ctx, url)
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()
	return done
}

// Token rotation must end streams riding the old credential.
func TestTenantServerRotationEndsLiveSSE(t *testing.T) {
	spec := fleetSpec("live")
	spec.Token = "tok"
	ts, reg := newFleet(t, nil, nil, spec)

	done := sseOpen(t, ts.URL+"/t/live/deltas/u0?access_token=tok")
	if _, err := reg.RotateToken("live", "newtok"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream survived token rotation")
	}
}

// Deleting a tenant with a live subscription must tear the stream down
// and release its resources.
func TestTenantServerDeleteEndsLiveSSE(t *testing.T) {
	ts, reg := newFleet(t, nil, nil, fleetSpec("doomed"))

	done := sseOpen(t, ts.URL+"/t/doomed/subscribe/u0")
	if err := reg.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream survived tenant deletion")
	}
}

func TestTenantServerSubscriptionQuota(t *testing.T) {
	spec := fleetSpec("sub")
	spec.Quotas.MaxSubscriptions = 1
	ts, _ := newFleet(t, nil, nil, spec)

	done := sseOpen(t, ts.URL+"/t/sub/deltas/u0")
	// The slot is taken; a second stream is refused.
	if code, _ := doReq(t, "GET", ts.URL+"/t/sub/deltas/u0", "", ""); code != 429 {
		t.Errorf("second stream: %d, want 429", code)
	}
	// /subscribe and /deltas share the same quota pool.
	if code, _ := doReq(t, "GET", ts.URL+"/t/sub/subscribe/u0", "", ""); code != 429 {
		t.Errorf("subscribe bypasses the pool: %d, want 429", code)
	}
	_ = done
}

func TestTenantServerMetricsEndpoint(t *testing.T) {
	tel := telemetry.NewRegistry()
	ts, _ := newFleet(t,
		[]tenant.Option{tenant.WithTelemetry(tel)},
		[]server.TenantOption{server.WithMetrics(tel)},
		fleetSpec("alpha"), fleetSpec("beta"))

	if code, _ := doReq(t, "POST", ts.URL+"/t/alpha/objects", "", `{"name":"o1","values":["Apple","quad"]}`); code != 200 {
		t.Fatal("add failed")
	}
	resp, raw := send(t, "GET", ts.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	out := string(raw)
	for _, want := range []string{
		`paretomon_objects_ingested_total{tenant="alpha"} 1`,
		`paretomon_tenant_users{tenant="beta"} 1`,
		`paretomon_http_requests_total{code="200",route="/objects",tenant="alpha"} 1`,
		"# TYPE paretomon_http_request_duration_seconds histogram",
		`paretomon_http_request_duration_seconds_count{route="/objects",tenant="alpha"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestTenantServerDefaultTenantAlias(t *testing.T) {
	spec := fleetSpec("main")
	spec.Token = "tok"
	ts, _ := newFleet(t, nil,
		[]server.TenantOption{server.WithDefaultTenant("main")},
		spec, fleetSpec("other"))

	// The legacy un-namespaced surface serves the default tenant — with
	// its auth still enforced.
	if code, _ := doReq(t, "POST", ts.URL+"/objects", "", `{"name":"o1","values":["Apple","quad"]}`); code != 401 {
		t.Errorf("alias without token: %d, want 401", code)
	}
	if code, _ := doReq(t, "POST", ts.URL+"/objects", "tok", `{"name":"o1","values":["Apple","quad"]}`); code != 200 {
		t.Errorf("alias add: %d", code)
	}
	code, body := doReq(t, "GET", ts.URL+"/frontier/u0", "tok", "")
	if code != 200 || fmt.Sprint(body["frontier"]) != "[o1]" {
		t.Errorf("alias frontier: %d %v", code, body)
	}
	// The alias is the same tenant as /t/main, not a parallel world.
	code, body = doReq(t, "GET", ts.URL+"/t/main/frontier/u0", "tok", "")
	if code != 200 || fmt.Sprint(body["frontier"]) != "[o1]" {
		t.Errorf("/t/main disagrees with alias: %d %v", code, body)
	}
}

func TestTenantServerRateQuota(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	spec := fleetSpec("throttled")
	spec.Quotas.MaxRequestsPerSec = 3
	ts, _ := newFleet(t, []tenant.Option{tenant.WithClock(clock)}, nil, spec)

	var codes []int
	for i := 0; i < 5; i++ {
		code, _ := doReq(t, "GET", ts.URL+"/t/throttled/users", "", "")
		codes = append(codes, code)
	}
	want := []int{200, 200, 200, 429, 429}
	if fmt.Sprint(codes) != fmt.Sprint(want) {
		t.Errorf("codes = %v, want %v", codes, want)
	}
	now = now.Add(time.Second)
	if code, _ := doReq(t, "GET", ts.URL+"/t/throttled/users", "", ""); code != 200 {
		t.Errorf("after refill: %d", code)
	}
}
