package server_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// ingest is a raw client end of an ingest stream.
type ingest struct {
	rw io.ReadWriteCloser
	br *bufio.Reader
}

// dialIngest opens an ingest stream on the server at url, which must
// answer 101; header holds further request header pairs.
func dialIngest(t *testing.T, url string, header ...string) *ingest {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url+"/objects/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.StreamProtocol)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rw, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET /objects/stream: %d %s", resp.StatusCode, data)
	}
	t.Cleanup(func() { rw.Close() })
	return &ingest{rw: rw, br: bufio.NewReader(rw)}
}

// batchReply is what a client of POST /objects/batch can observe of one
// answer: its status, RingHeader and body.
type batchReply struct {
	status     int
	ring, body string
}

// exchange sends one POST /objects/batch body as a request frame, its
// batch in the stream's binary payload, and reads the reply; a 200's
// deliveries come back as the JSON body POST would have answered them
// with.
func (in *ingest) exchange(t *testing.T, batch, ring, body string) batchReply {
	t.Helper()
	objs, err := wire.DecodeBatch(&wire.Buffer{B: []byte(body)})
	if err != nil {
		t.Fatalf("a batch body that does not decode: %v", err)
	}
	r := in.exchangePayload(t, batch, ring, wire.AppendBatchPayload(nil, objs))
	if r.status == http.StatusOK {
		ds, err := wire.DecodeReplyPayload(&wire.Buffer{}, []byte(r.body), objs)
		if err != nil {
			t.Fatalf("a 200 reply payload: %v", err)
		}
		r.body = string(wire.AppendDeliveries(nil, ds)) + "\n"
	}
	return r
}

// exchangePayload sends one request frame carrying payload as its batch
// and reads the reply as it came.
func (in *ingest) exchangePayload(t *testing.T, batch, ring string, payload []byte) batchReply {
	t.Helper()
	v, _ := strconv.ParseUint(ring, 10, 64)
	if _, err := in.rw.Write(wire.AppendBatchFrame(nil, batch, v, payload)); err != nil {
		t.Fatal(err)
	}
	p, err := wire.ReadFrame(in.br, wire.TagReply, nil, wire.MaxReplyPayload)
	if err != nil {
		t.Fatal(err)
	}
	status, have, hasRing, reply, err := wire.ParseReply(p)
	if err != nil {
		t.Fatal(err)
	}
	r := batchReply{status: status, body: string(reply)}
	if hasRing {
		r.ring = strconv.FormatUint(have, 10)
	}
	return r
}

// TestStreamAnswersAsPost: two partitions over equal monitors, one sent
// each step as POST /objects/batch, the other as a frame on one ingest
// stream, answer every step alike: a 200 with the same deliveries, and
// every refusal with the same status, body and RingHeader — a batch id's
// memo and conflict, a bad id, a duplicate, the body cap, and the ring
// fence before and after a ring is installed. A torn binary payload,
// which no POST can send, is answered 400 on a stream that stays open.
func TestStreamAnswersAsPost(t *testing.T) {
	com := goldenCommunity(t)
	posted := httptest.NewServer(server.New(goldenMonitor(t, com)))
	t.Cleanup(posted.Close)
	streamed := httptest.NewServer(server.New(goldenMonitor(t, com)))
	t.Cleanup(streamed.Close)
	in := dialIngest(t, streamed.URL)

	batch := func(names ...string) string {
		objs := make([]paretomon.Object, len(names))
		for i, n := range names {
			objs[i] = paretomon.Object{Name: n, Values: []string{"Apple", "dual"}}
		}
		return string(wire.AppendBatch(nil, objs))
	}
	// Past the body cap in either encoding.
	huge := string(wire.AppendBatch(nil, []paretomon.Object{{Name: "o6", Values: []string{"Apple", strings.Repeat("d", server.MaxBodyBytes)}}}))
	torn := wire.AppendBatchPayload(nil, []paretomon.Object{{Name: "o5", Values: []string{"Apple", "dual"}}})
	torn = torn[:len(torn)-2]
	ring, err := partition.NewRing(2, 1, partition.DefaultVNodes, []string{"http://p0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		batch, ring, body string
		status            int
		installRing       bool
	}{
		{"", "", batch("o1", "o2"), 200, false},
		{"feed-1/1", "", batch("o3"), 200, false},
		{"feed-1/1", "", batch("o3"), 200, false}, // the memo
		{"feed-1/1", "", batch("o4"), 409, false}, // the id's batch was another
		{"feed-1/0", "", batch("o4"), 400, false}, // a bad id
		{"", "", batch("o1"), 400, false},         // a duplicate
		{"", "", "", 400, false},                  // the torn payload, on the stream only
		{"", "", `{"values":["Apple"],"name":"x"}`, 200, false},
		{"", "", huge, 413, false},
		{"", "", batch("o6"), 409, true}, // no ring version, one installed
		{"", "1", batch("o6"), 409, false},
		{"", "2", batch("o5", "o6"), 200, false},
	}
	for i, st := range steps {
		if st.installRing {
			for _, u := range []string{posted.URL, streamed.URL} {
				if resp, _ := send(t, http.MethodPut, u+"/ring", string(ring.Encode())); resp.StatusCode != 200 {
					t.Fatalf("PUT /ring: %d", resp.StatusCode)
				}
			}
		}
		if st.body == "" {
			got := in.exchangePayload(t, st.batch, st.ring, torn)
			if got.status != st.status || !strings.Contains(got.body, "malformed stream payload") {
				t.Fatalf("step %d: a torn payload answered %d %q, want %d", i, got.status, got.body, st.status)
			}
			continue
		}
		header := []string{}
		if st.batch != "" {
			header = append(header, partition.BatchHeader, st.batch)
		}
		if st.ring != "" {
			header = append(header, partition.RingHeader, st.ring)
		}
		resp, data := send(t, http.MethodPost, posted.URL+"/objects/batch", st.body, header...)
		want := batchReply{status: resp.StatusCode, ring: resp.Header.Get(partition.RingHeader), body: string(data)}
		got := in.exchange(t, st.batch, st.ring, st.body)
		if want.status != st.status || got != want {
			t.Fatalf("step %d: POST answered %d %q (ring %q), the stream %d %q (ring %q); want %d",
				i, want.status, want.body, want.ring, got.status, got.body, got.ring, st.status)
		}
	}
}

// hideHijack wraps a ResponseWriter without Hijack or Unwrap, as a
// telemetry wrapper does.
type hideHijack struct{ http.ResponseWriter }

// TestStreamRefusals: a request without the upgrade is 426, and a
// connection that cannot be hijacked is 501, both as ordinary responses
// on a connection that stays usable.
func TestStreamRefusals(t *testing.T) {
	ts := newTestServer(t)
	resp, data := send(t, http.MethodGet, ts.URL+"/objects/stream", "")
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != wire.StreamProtocol {
		t.Fatalf("GET /objects/stream without an upgrade: %d %s %v", resp.StatusCode, data, resp.Header)
	}
	h := ts.Config.Handler
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(hideHijack{w}, r)
	}))
	t.Cleanup(wrapped.Close)
	resp, data = send(t, http.MethodGet, wrapped.URL+"/objects/stream", "", "Connection", "Upgrade", "Upgrade", wire.StreamProtocol)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("GET /objects/stream through a wrapper without Hijack: %d %s", resp.StatusCode, data)
	}
	if resp, _ := send(t, http.MethodGet, wrapped.URL+"/healthz", ""); resp.StatusCode != 200 {
		t.Fatalf("after the 501: GET /healthz %d", resp.StatusCode)
	}
}

// TestStreamTeardown: with an ingest stream open, Server.Close ends it
// (and refuses a new one, 503), http.Server.Shutdown returns and ends it, and httptest.Server.Close
// returns with it open — a switched connection is outside both servers'
// bookkeeping — and it ends when the client closes it. Ending, the
// partition's handler goroutine returns.
func TestStreamTeardown(t *testing.T) {
	start := func(t *testing.T, serve func(h http.Handler) string) (*server.Server, *ingest, <-chan struct{}) {
		srv := server.New(goldenMonitor(t, goldenCommunity(t)))
		exited := make(chan struct{}, 1)
		url := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			srv.ServeHTTP(w, r)
			if r.URL.Path == "/objects/stream" {
				exited <- struct{}{}
			}
		}))
		in := dialIngest(t, url)
		body := string(wire.AppendBatch(nil, []paretomon.Object{{Name: "o1", Values: []string{"Apple", "dual"}}}))
		if got := in.exchange(t, "", "", body); got.status != 200 {
			t.Fatalf("a batch on the stream: %+v", got)
		}
		return srv, in, exited
	}
	ended := func(t *testing.T, in *ingest, exited <-chan struct{}) {
		t.Helper()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatal("the stream's handler never returned")
		}
		if _, err := in.br.ReadByte(); err == nil {
			t.Fatal("the client reads on after the stream ended")
		}
	}
	returns := func(t *testing.T, what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatalf("%s hangs on an open ingest stream", what)
		}
	}
	testServer := func(t *testing.T) (func(http.Handler) string, **httptest.Server) {
		var ts *httptest.Server
		return func(h http.Handler) string {
			ts = httptest.NewServer(h)
			t.Cleanup(ts.Close)
			return ts.URL
		}, &ts
	}

	t.Run("Server.Close", func(t *testing.T) {
		serve, ts := testServer(t)
		srv, in, exited := start(t, serve)
		returns(t, "Server.Close", func() { srv.Close() })
		ended(t, in, exited)
		resp, data := send(t, http.MethodGet, (*ts).URL+"/objects/stream", "", "Connection", "Upgrade", "Upgrade", wire.StreamProtocol)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("an upgrade after Close: %d %s, want 503", resp.StatusCode, data)
		}
	})
	t.Run("http.Server.Shutdown", func(t *testing.T) {
		var hs *http.Server
		_, in, exited := start(t, func(h http.Handler) string {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hs = &http.Server{Handler: h}
			go hs.Serve(ln)
			return "http://" + ln.Addr().String()
		})
		returns(t, "http.Server.Shutdown", func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := hs.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		})
		ended(t, in, exited)
	})
	t.Run("httptest.Server.Close", func(t *testing.T) {
		serve, ts := testServer(t)
		_, in, exited := start(t, serve)
		returns(t, "httptest.Server.Close", (*ts).Close)
		in.rw.Close()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatal("the stream's handler never returned after the client closed it")
		}
	})
}

// TestTenantStream: a tenant's ingest stream stands for one request per
// batch. Rotating the tenant's token or deleting the tenant cuts it, and
// the old token opens no new one; each batch is charged to the tenant's
// request rate, and a batch over it is answered 429, not applied, on a
// stream that stays open.
func TestTenantStream(t *testing.T) {
	body := func(names ...string) string {
		objs := make([]paretomon.Object, len(names))
		for i, n := range names {
			objs[i] = paretomon.Object{Name: n, Values: []string{"Apple", "dual"}}
		}
		return string(wire.AppendBatch(nil, objs))
	}
	cut := func(t *testing.T, in *ingest, what string) {
		t.Helper()
		done := make(chan error, 1)
		go func() { _, err := in.br.ReadByte(); done <- err }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("the stream sent bytes after %s", what)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the stream survived %s", what)
		}
	}
	auth := []string{"Authorization", "Bearer tok"}

	t.Run("rotation", func(t *testing.T) {
		spec := fleetSpec("live")
		spec.Token = "tok"
		ts, reg := newFleet(t, nil, nil, spec)
		in := dialIngest(t, ts.URL+"/t/live", auth...)
		if got := in.exchange(t, "", "", body("o1")); got.status != 200 {
			t.Fatalf("a batch on the stream: %+v", got)
		}
		if _, err := reg.RotateToken("live", "newtok"); err != nil {
			t.Fatal(err)
		}
		cut(t, in, "token rotation")
		resp, data := send(t, http.MethodGet, ts.URL+"/t/live/objects/stream", "",
			"Connection", "Upgrade", "Upgrade", wire.StreamProtocol, "Authorization", "Bearer tok")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("an upgrade with the old token: %d %s, want 401", resp.StatusCode, data)
		}
		in = dialIngest(t, ts.URL+"/t/live", "Authorization", "Bearer newtok")
		if got := in.exchange(t, "", "", body("o2")); got.status != 200 {
			t.Fatalf("a batch on the new token's stream: %+v", got)
		}
	})
	t.Run("deletion", func(t *testing.T) {
		ts, reg := newFleet(t, nil, nil, fleetSpec("doomed"))
		in := dialIngest(t, ts.URL+"/t/doomed")
		if got := in.exchange(t, "", "", body("o1")); got.status != 200 {
			t.Fatalf("a batch on the stream: %+v", got)
		}
		if err := reg.Delete("doomed"); err != nil {
			t.Fatal(err)
		}
		cut(t, in, "tenant deletion")
	})
	t.Run("rate", func(t *testing.T) {
		now := time.Unix(0, 0)
		clock := func() time.Time { return now }
		spec := fleetSpec("throttled")
		spec.Quotas.MaxRequestsPerSec = 3
		ts, _ := newFleet(t, []tenant.Option{tenant.WithClock(clock)}, nil, spec)
		in := dialIngest(t, ts.URL+"/t/throttled") // the upgrade is one request
		var codes []int
		for _, name := range []string{"o1", "o2", "o3"} {
			codes = append(codes, in.exchange(t, "", "", body(name)).status)
		}
		if want := []int{200, 200, 429}; fmt.Sprint(codes) != fmt.Sprint(want) {
			t.Fatalf("batches on the stream answered %v, want %v", codes, want)
		}
		now = now.Add(time.Second)
		// o3 was not applied: sent again, it is no duplicate.
		if got := in.exchange(t, "", "", body("o3")); got.status != 200 {
			t.Fatalf("after the refill: %+v", got)
		}
	})
}

// TestInvalidUTF8IsACallersError: a Router's refusal of a batch whose
// names or values are not valid UTF-8 is answered 400, not as a fleet
// failure (502).
func TestInvalidUTF8IsACallersError(t *testing.T) {
	rec := httptest.NewRecorder()
	server.WriteError(rec, fmt.Errorf("%w: batch object 0's name %q", partition.ErrInvalidUTF8, "bad\xff"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ErrInvalidUTF8 answered %d, want 400", rec.Code)
	}
}
