package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/server"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := paretomon.NewSchema("brand", "CPU")
	com := paretomon.NewCommunity(s)
	alice, err := com.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.PreferChain("brand", "Apple", "Lenovo", "Toshiba"); err != nil {
		t.Fatal(err)
	}
	if err := alice.PreferChain("CPU", "quad", "dual", "single"); err != nil {
		t.Fatal(err)
	}
	mon, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mon))
	t.Cleanup(ts.Close)
	return ts
}

// send issues one request with a JSON body, setting the header
// key/value pairs, and reads the whole reply.
func send(t *testing.T, method, url, body string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// doJSON is send with the reply decoded as a JSON object (nil when it is
// not one).
func doJSON(t *testing.T, method, url, body string, header ...string) (*http.Response, map[string]any) {
	t.Helper()
	resp, data := send(t, method, url, body, header...)
	var out map[string]any
	_ = json.Unmarshal(data, &out)
	return resp, out
}

// openStream opens a streaming GET that must answer 200; the caller
// closes the body.
func openStream(t *testing.T, ctx context.Context, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return resp
}

// decode unmarshals a reply that must be JSON into v.
func decode(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("reply %q: %v", data, err)
	}
}

// post and get are doJSON for a reply that must be a JSON object.
func post(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, data := send(t, http.MethodPost, url, body)
	var out map[string]any
	decode(t, data, &out)
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, data := send(t, http.MethodGet, url, "")
	var out map[string]any
	decode(t, data, &out)
	return resp, out
}

func TestObjectIngestionAndFrontier(t *testing.T) {
	ts := newTestServer(t)

	resp, out := post(t, ts.URL+"/objects", `{"name":"o1","values":["Lenovo","dual"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if !reflect.DeepEqual(out["users"], []any{"alice"}) {
		t.Fatalf("delivery = %v", out)
	}
	// o2 dominates o1.
	_, out = post(t, ts.URL+"/objects", `{"name":"o2","values":["Apple","quad"]}`)
	if !reflect.DeepEqual(out["users"], []any{"alice"}) {
		t.Fatalf("delivery = %v", out)
	}
	// Dominated object: empty (not null) user list.
	_, out = post(t, ts.URL+"/objects", `{"name":"o3","values":["Toshiba","single"]}`)
	if got, ok := out["users"].([]any); !ok || len(got) != 0 {
		t.Fatalf("dominated delivery = %v", out)
	}

	resp, out = get(t, ts.URL+"/frontier/alice")
	if resp.StatusCode != 200 {
		t.Fatalf("frontier status %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(out["frontier"], []any{"o2"}) {
		t.Fatalf("frontier = %v", out)
	}
}

func TestPreferenceUpdateOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"a","values":["BrandX","dual"]}`)
	post(t, ts.URL+"/objects", `{"name":"b","values":["BrandY","dual"]}`)
	// Both unknown brands: incomparable, both Pareto.
	_, out := get(t, ts.URL+"/frontier/alice")
	if got := out["frontier"].([]any); len(got) != 2 {
		t.Fatalf("frontier = %v", out)
	}
	// alice now prefers BrandX over BrandY: b is repaired away.
	resp, _ := post(t, ts.URL+"/preferences",
		`{"user":"alice","attribute":"brand","better":"BrandX","worse":"BrandY"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("preference status %d", resp.StatusCode)
	}
	_, out = get(t, ts.URL+"/frontier/alice")
	if !reflect.DeepEqual(out["frontier"], []any{"a"}) {
		t.Fatalf("frontier after update = %v", out)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{"GET", "/objects", "", http.StatusMethodNotAllowed},
		{"POST", "/objects", `{bad json`, http.StatusBadRequest},
		{"POST", "/objects", `{"name":"","values":["a","b"]}`, http.StatusBadRequest},
		{"POST", "/objects", `{"name":"x","values":["only-one"]}`, http.StatusBadRequest},
		{"GET", "/frontier/ghost", "", http.StatusNotFound},
		// An empty {user} segment matches no route under the Go 1.22
		// method+wildcard patterns.
		{"GET", "/frontier/", "", http.StatusNotFound},
		{"POST", "/frontier/alice", "", http.StatusMethodNotAllowed},
		{"POST", "/preferences", `{"user":"alice","attribute":"brand","better":"x","worse":"x"}`, http.StatusBadRequest},
		{"POST", "/stats", "", http.StatusMethodNotAllowed},
		{"POST", "/clusters", "", http.StatusMethodNotAllowed},
	} {
		if resp, _ := send(t, tc.method, ts.URL+tc.path, tc.body); resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

func TestStatsAndClusters(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","dual"]}`)
	resp, out := get(t, ts.URL+"/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if out["Processed"].(float64) != 1 {
		t.Errorf("stats = %v", out)
	}
	// Baseline engine: no clusters (empty array, not null).
	_, data := send(t, "GET", ts.URL+"/clusters", "")
	var cl [][]string
	if decode(t, data, &cl); cl == nil || len(cl) != 0 {
		t.Errorf("clusters = %v", cl)
	}
}

// TestShardedStats serves a sharded monitor and checks that /stats
// breaks the work down per shard.
func TestShardedStats(t *testing.T) {
	s := paretomon.NewSchema("brand")
	com := paretomon.NewCommunity(s)
	for _, name := range []string{"alice", "bob", "carol"} {
		u, err := com.AddUser(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.PreferChain("brand", "Apple", "Lenovo"); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := paretomon.NewMonitor(com,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
		paretomon.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mon))
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/objects/batch",
		`{"objects":[{"name":"o1","values":["Lenovo"]},{"name":"o2","values":["Apple"]}]}`)
	resp, out := get(t, ts.URL+"/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if out["Workers"].(float64) != 2 {
		t.Fatalf("Workers = %v", out["Workers"])
	}
	shards, ok := out["Shards"].([]any)
	if !ok || len(shards) != 2 {
		t.Fatalf("Shards = %v", out["Shards"])
	}
	var delivered float64
	for _, sh := range shards {
		delivered += sh.(map[string]any)["Delivered"].(float64)
	}
	if delivered != out["Delivered"].(float64) {
		t.Fatalf("shard deliveries %v != total %v", delivered, out["Delivered"])
	}

	// A repeated tuple is answered without a scan and counted once, not
	// once per shard: every shard recognises the same twin.
	post(t, ts.URL+"/objects", `{"name":"o3","values":["Apple"]}`)
	_, out = get(t, ts.URL+"/stats")
	if out["Twins"].(float64) != 1 || out["Processed"].(float64) != 3 {
		t.Fatalf("Twins = %v of %v processed, want 1 of 3", out["Twins"], out["Processed"])
	}
}

func TestTypedErrorStatusMapping(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","dual"]}`)
	for _, tc := range []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"unknown user frontier", "GET", "/frontier/ghost", "", http.StatusNotFound},
		{"unknown user subscribe", "GET", "/subscribe/ghost", "", http.StatusNotFound},
		{"unknown object targets", "GET", "/targets/ghost", "", http.StatusNotFound},
		{"unknown user preference", "POST", "/preferences",
			`{"user":"ghost","attribute":"brand","better":"a","worse":"b"}`, http.StatusNotFound},
		{"unknown attribute preference", "POST", "/preferences",
			`{"user":"alice","attribute":"nope","better":"a","worse":"b"}`, http.StatusBadRequest},
		{"cyclic preference", "POST", "/preferences",
			`{"user":"alice","attribute":"brand","better":"Toshiba","worse":"Apple"}`, http.StatusBadRequest},
		{"duplicate object", "POST", "/objects", `{"name":"o1","values":["Apple","dual"]}`, http.StatusBadRequest},
		{"malformed object", "POST", "/objects", `{"name":"o2","values":["Apple"]}`, http.StatusBadRequest},
		{"malformed batch JSON", "POST", "/objects/batch", `{bad`, http.StatusBadRequest},
		{"duplicate in batch", "POST", "/objects/batch",
			`{"objects":[{"name":"b1","values":["Apple","dual"]},{"name":"o1","values":["Apple","dual"]}]}`,
			http.StatusBadRequest},
	} {
		if resp, _ := send(t, tc.method, ts.URL+tc.path, tc.body); resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}
	// The failed batch must not have ingested its valid prefix.
	resp, _ := get(t, ts.URL+"/frontier/alice")
	if resp.StatusCode != 200 {
		t.Fatal("frontier after failed batch")
	}
	if r2, _ := send(t, "GET", ts.URL+"/targets/b1", ""); r2.StatusCode != http.StatusNotFound {
		t.Errorf("b1 from rejected batch should be unknown, got status %d", r2.StatusCode)
	}
}

func TestBatchIngestion(t *testing.T) {
	ts := newTestServer(t)
	resp, data := send(t, "POST", ts.URL+"/objects/batch", `{"objects":[
			{"name":"o1","values":["Lenovo","dual"]},
			{"name":"o2","values":["Apple","quad"]},
			{"name":"o3","values":["Toshiba","single"]}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Deliveries []struct {
			Object string   `json:"object"`
			Users  []string `json:"users"`
		} `json:"deliveries"`
	}
	if decode(t, data, &out); len(out.Deliveries) != 3 {
		t.Fatalf("deliveries = %+v", out)
	}
	if !reflect.DeepEqual(out.Deliveries[0].Users, []string{"alice"}) ||
		!reflect.DeepEqual(out.Deliveries[1].Users, []string{"alice"}) ||
		len(out.Deliveries[2].Users) != 0 {
		t.Errorf("deliveries = %+v", out.Deliveries)
	}
	_, fr := get(t, ts.URL+"/frontier/alice")
	if !reflect.DeepEqual(fr["frontier"], []any{"o2"}) {
		t.Errorf("frontier = %v", fr)
	}
}

// TestBatchHeaderRetry: a client that did not get the reply to a POST
// /objects/batch re-sends it under the same X-Paretomon-Batch header and
// gets the very bytes of the first answer, without a second ingest —
// also from a restarted server, which rebuilt the answer from its WAL.
func TestBatchHeaderRetry(t *testing.T) {
	ts, mon, com, dir := newDurableTestServer(t)
	const body = `{"objects":[{"name":"o1","values":["Lenovo","dual"]},{"name":"o2","values":["Apple","quad"]},{"name":"o3","values":["Toshiba","single"]}]}`
	first := doRaw(t, "POST", ts.URL+"/objects/batch", body, "client-7/1")
	if first.status != 200 {
		t.Fatalf("first POST: %+v", first)
	}
	if again := doRaw(t, "POST", ts.URL+"/objects/batch", body, "client-7/1"); again != first {
		t.Fatalf("retry answered %+v, first %+v", again, first)
	}
	if n := mon.ObjectCount(); n != 3 {
		t.Fatalf("ObjectCount = %d after a retried batch of 3", n)
	}
	ts.Close()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	mon, err := paretomon.Open(com, dir, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	ts = httptest.NewServer(server.New(mon))
	defer ts.Close()
	if again := doRaw(t, "POST", ts.URL+"/objects/batch", body, "client-7/1"); again != first {
		t.Fatalf("retry after a restart answered %+v, first %+v", again, first)
	}
	if plain := doRaw(t, "POST", ts.URL+"/objects/batch", body, ""); plain.status != 400 {
		t.Fatalf("re-sent without the header: %+v, want a duplicate's 400", plain)
	}
}

func TestTargetsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Lenovo","dual"]}`)
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Apple","quad"]}`)
	_, out := get(t, ts.URL+"/targets/o1")
	if got, ok := out["users"].([]any); !ok || len(got) != 0 {
		t.Errorf("targets(o1) = %v, want empty (dominated by o2)", out)
	}
	_, out = get(t, ts.URL+"/targets/o2")
	if !reflect.DeepEqual(out["users"], []any{"alice"}) {
		t.Errorf("targets(o2) = %v", out)
	}
}

// TestSSESubscription holds a /subscribe stream open, ingests objects
// concurrently, and asserts the deliveries arrive as SSE events.
func TestSSESubscription(t *testing.T) {
	ts := newTestServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := openStream(t, ctx, ts.URL+"/subscribe/alice")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Ingest once the stream is established: o1 is delivered to alice,
	// o3 (dominated) is not, o2 is delivered.
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Lenovo","dual"]}`)
	post(t, ts.URL+"/objects", `{"name":"o3","values":["Toshiba","single"]}`)
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Apple","quad"]}`)

	type delivery struct {
		Object string   `json:"object"`
		Users  []string `json:"users"`
	}
	var got []delivery
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(got) < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var d delivery
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		got = append(got, d)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Object != "o1" || got[1].Object != "o2" {
		t.Fatalf("SSE deliveries = %+v, want [o1 o2]", got)
	}
	if !reflect.DeepEqual(got[0].Users, []string{"alice"}) {
		t.Errorf("o1 users = %v", got[0].Users)
	}
}

// newDurableTestServer builds a server over a durable monitor rooted at
// a temp data directory, returning the monitor (so the "process" can be
// stopped — the store lock must release before a restart), the
// community, and the directory.
func newDurableTestServer(t *testing.T) (*httptest.Server, *paretomon.Monitor, *paretomon.Community, string) {
	t.Helper()
	s := paretomon.NewSchema("brand", "CPU")
	com := paretomon.NewCommunity(s)
	alice, err := com.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.PreferChain("brand", "Apple", "Lenovo", "Toshiba"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mon, err := paretomon.Open(com, dir, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mon))
	t.Cleanup(ts.Close)
	return ts, mon, com, dir
}

func TestSnapshotAndStorageStatsEndpoints(t *testing.T) {
	ts, mon1, com, dir := newDurableTestServer(t)
	resp, _ := post(t, ts.URL+"/objects", `{"name": "o1", "values": ["Apple", "dual"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/storage/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /storage/stats: %d", resp.StatusCode)
	}
	if body["segments"].(float64) < 1 || body["wal_bytes"].(float64) <= 0 {
		t.Errorf("storage stats before snapshot: %v", body)
	}
	if body["snapshots"].(float64) != 0 {
		t.Errorf("unexpected snapshot before POST /snapshot: %v", body)
	}

	resp, body = post(t, ts.URL+"/snapshot", "")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("POST /snapshot: %d %v", resp.StatusCode, body)
	}
	storage := body["storage"].(map[string]any)
	if storage["snapshots"].(float64) != 1 || storage["snapshot_bytes"].(float64) <= 0 {
		t.Errorf("storage stats after snapshot: %v", storage)
	}

	// Method guards: the mux answers these itself (plain-text body, so
	// no JSON decoding here).
	if resp, _ := send(t, "GET", ts.URL+"/snapshot", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /snapshot: %d", resp.StatusCode)
	}
	if resp, _ := send(t, "POST", ts.URL+"/storage/stats", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /storage/stats: %d", resp.StatusCode)
	}

	// A restarted server over the same directory recovers the object
	// (the old incarnation must release its store lock first).
	ts.Close()
	if err := mon1.Close(); err != nil {
		t.Fatal(err)
	}
	mon, err := paretomon.Open(com, dir, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(server.New(mon))
	defer ts2.Close()
	resp, body = get(t, ts2.URL+"/frontier/alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /frontier after restart: %d", resp.StatusCode)
	}
	if got := body["frontier"].([]any); len(got) != 1 || got[0] != "o1" {
		t.Errorf("frontier after restart: %v", got)
	}
	// The log head must survive recovery even before any new append —
	// followers' WaitSynced compares against it.
	_, body = get(t, ts2.URL+"/storage/stats")
	if body["last_appended_seq"].(float64) != 1 {
		t.Errorf("last_appended_seq after restart: %v, want 1", body["last_appended_seq"])
	}
}

func TestStorageEndpointsWithoutStore(t *testing.T) {
	ts := newTestServer(t)
	if resp, _ := post(t, ts.URL+"/snapshot", ""); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("POST /snapshot without store: %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/storage/stats"); resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("GET /storage/stats without store: %d", resp.StatusCode)
	}
}

// TestLifecycleEndpoints drives the v3 lifecycle over HTTP: join a user,
// retract a preference, delete an object, delete a user — and checks the
// status mapping for the failure shapes (404 unknown, 400 duplicate).
func TestLifecycleEndpoints(t *testing.T) {
	ts := newTestServer(t)

	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","dual"]}`)
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Lenovo","quad"]}`)

	// Join bob preferring Lenovo over Apple and quad over dual: o2
	// (Lenovo, quad) dominates o1 (Apple, dual) for him.
	resp, _ := doJSON(t, "POST", ts.URL+"/users",
		`{"name":"bob","preferences":[{"attribute":"brand","better":"Lenovo","worse":"Apple"},
		                              {"attribute":"CPU","better":"quad","worse":"dual"}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /users: %d", resp.StatusCode)
	}
	resp, out := get(t, ts.URL+"/frontier/bob")
	if resp.StatusCode != 200 {
		t.Fatalf("frontier of new user: %d", resp.StatusCode)
	}
	if f := out["frontier"].([]any); len(f) != 1 || f[0] != "o2" {
		t.Fatalf("bob's frontier = %v, want [o2]", f)
	}

	// Duplicate join → 400; GET /users lists both.
	resp, _ = doJSON(t, "POST", ts.URL+"/users", `{"name":"bob","preferences":[]}`)
	if resp.StatusCode != 400 {
		t.Fatalf("duplicate user: %d, want 400", resp.StatusCode)
	}
	_, data := send(t, "GET", ts.URL+"/users", "")
	var users []string
	if decode(t, data, &users); !reflect.DeepEqual(users, []string{"alice", "bob"}) {
		t.Fatalf("GET /users = %v", users)
	}

	// Retract bob's brand preference: brands become incomparable, so o1
	// re-enters his frontier.
	resp, _ = doJSON(t, "DELETE", ts.URL+"/preferences",
		`{"user":"bob","attribute":"brand","better":"Lenovo","worse":"Apple"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE /preferences: %d", resp.StatusCode)
	}
	_, out = get(t, ts.URL+"/frontier/bob")
	if f := out["frontier"].([]any); len(f) != 2 {
		t.Fatalf("bob's frontier after retract = %v, want [o1 o2]", f)
	}
	// Retracting it again → 404 (never asserted anymore).
	resp, _ = doJSON(t, "DELETE", ts.URL+"/preferences",
		`{"user":"bob","attribute":"brand","better":"Lenovo","worse":"Apple"}`)
	if resp.StatusCode != 404 {
		t.Fatalf("double retract: %d, want 404", resp.StatusCode)
	}

	// Delete o1: gone from frontiers and targets; double delete → 404.
	resp, _ = doJSON(t, "DELETE", ts.URL+"/objects/o1", "")
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE /objects/o1: %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/targets/o1")
	if resp.StatusCode != 404 {
		t.Fatalf("targets of removed object: %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, "DELETE", ts.URL+"/objects/o1", "")
	if resp.StatusCode != 404 {
		t.Fatalf("double object delete: %d, want 404", resp.StatusCode)
	}

	// Delete bob: frontier 404s, delete again 404s.
	resp, _ = doJSON(t, "DELETE", ts.URL+"/users/bob", "")
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE /users/bob: %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/frontier/bob")
	if resp.StatusCode != 404 {
		t.Fatalf("frontier of removed user: %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, "DELETE", ts.URL+"/users/bob", "")
	if resp.StatusCode != 404 {
		t.Fatalf("double user delete: %d, want 404", resp.StatusCode)
	}
}

// TestSSEDeltas pins the v3 stream payload: an ingestion shows up as an
// enter-only delta with the triggering object, an object removal as a
// delta whose Left names it (plus any promotions in Entered).
func TestSSEDeltas(t *testing.T) {
	ts := newTestServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := openStream(t, ctx, ts.URL+"/deltas/alice")
	defer resp.Body.Close()

	// o1 arrives (delivered to alice), o2 dominates nothing for alice
	// but also enters, then o1 is removed.
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","dual"]}`)
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Lenovo","quad"]}`)
	doJSON(t, "DELETE", ts.URL+"/objects/o1", "")

	type delta struct {
		Object  string   `json:"object"`
		Entered []string `json:"entered"`
		Left    []string `json:"left"`
	}
	var got []delta
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && len(got) < 3 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var d delta
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		got = append(got, d)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("deltas = %+v, want 3 events", got)
	}
	if got[0].Object != "o1" || !reflect.DeepEqual(got[0].Entered, []string{"o1"}) {
		t.Errorf("first delta = %+v, want o1 entering", got[0])
	}
	if got[1].Object != "o2" || !reflect.DeepEqual(got[1].Entered, []string{"o2"}) {
		t.Errorf("second delta = %+v, want o2 entering", got[1])
	}
	if got[2].Object != "" || !reflect.DeepEqual(got[2].Left, []string{"o1"}) {
		t.Errorf("removal delta = %+v, want o1 in left", got[2])
	}
}
