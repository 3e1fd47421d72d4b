package partition_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/wire"
)

// fakePartition is a partition that says what the test tells it to:
// every POST /objects/batch is answered 200 with reply, /readyz is
// healthy, and no object is ever found applied (GET /targets → 404).
// It records what the router sent.
type fakePartition struct {
	*httptest.Server
	reply string

	mu    sync.Mutex
	posts []fakePost
}

// fakePost is one POST /objects/batch as the fake partition saw it.
type fakePost struct {
	body          string
	contentLength int64
	contentType   string
	encoding      []string
}

func (f *fakePartition) seen() []fakePost {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakePost(nil), f.posts...)
}

func newFakePartition(t *testing.T, reply string) *fakePartition {
	t.Helper()
	f := &fakePartition{reply: reply}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/objects/batch":
			body, _ := io.ReadAll(r.Body)
			f.mu.Lock()
			f.posts = append(f.posts, fakePost{string(body), r.ContentLength, r.Header.Get("Content-Type"), r.TransferEncoding})
			f.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, f.reply)
		case r.URL.Path == "/readyz":
			_, _ = io.WriteString(w, `{"status":"ok"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
			_, _ = io.WriteString(w, `{"error":"unknown object"}`)
		}
	}))
	t.Cleanup(f.Close)
	return f
}

func routerOver(t *testing.T, budget time.Duration, urls ...string) *partition.Router {
	t.Helper()
	rt, err := partition.New(partition.Config{URLs: urls, RetryBudget: budget, RetryInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// TestRouterRejectsMismatchedReply: a partition that answers 200 with
// fewer (or more, or other) deliveries than objects sent used to index
// mergeDeliveries out of range. It is now a lost reply: retried under the
// same batch id, and when the budget runs out the caller gets the typed
// fleet error.
func TestRouterRejectsMismatchedReply(t *testing.T) {
	objs := []paretomon.Object{{Name: "o1", Values: []string{"a"}}, {Name: "o2", Values: []string{"b"}}}
	for name, reply := range map[string]string{
		"none":         `{"deliveries":[]}`,
		"null":         `{"deliveries":null}`,
		"one short":    `{"deliveries":[{"object":"o1","users":[]}]}`,
		"one too many": `{"deliveries":[{"object":"o1","users":[]},{"object":"o2","users":[]},{"object":"o3","users":[]}]}`,
		"other object": `{"deliveries":[{"object":"o1","users":[]},{"object":"x","users":[]}]}`,
		"swapped":      `{"deliveries":[{"object":"o2","users":[]},{"object":"o1","users":[]}]}`,
		"not JSON":     `deliveries!`,
	} {
		t.Run(name, func(t *testing.T) {
			good := newFakePartition(t, `{"deliveries":[{"object":"o1","users":["u1"]},{"object":"o2","users":[]}]}`)
			bad := newFakePartition(t, reply)
			_, err := routerOver(t, 200*time.Millisecond, good.URL, bad.URL).AddBatch(objs)
			var re *partition.RouteError
			if !errors.As(err, &re) || len(re.Failures) != 1 || re.Failures[0].Partition != 1 {
				t.Fatalf("AddBatch = %v, want a *RouteError naming partition 1 only", err)
			}
			if !errors.Is(err, partition.ErrPartitionDown) {
				t.Errorf("error %v does not wrap ErrPartitionDown", err)
			}
			if n := len(bad.seen()); n < 2 {
				t.Errorf("%d POSTs to the bad partition: a mismatched reply must be retried like a lost one", n)
			}
		})
	}
}

// TestRouterWireBytes pins the request the router puts on the wire — the
// bytes json.Marshal wrote before internal/wire existed, a nil Values as
// null included, with a Content-Length — and that every partition gets
// the same ones.
func TestRouterWireBytes(t *testing.T) {
	objs := []paretomon.Object{
		{Name: "o<1>", Values: []string{"13-15.9", "A&T \u2028", "caf\u00e9"}},
		{Name: "o2", Values: nil},
		{Name: "o3", Values: []string{}},
	}
	const want = `{"objects":[{"name":"o\u003c1\u003e","values":["13-15.9","A\u0026T \u2028","café"]},{"name":"o2","values":null},{"name":"o3","values":[]}]}`
	reply := `{"deliveries":[{"object":"o<1>","users":[]},{"object":"o2","users":[]},{"object":"o3","users":[]}]}` + "\n"
	a, b := newFakePartition(t, reply), newFakePartition(t, reply)
	if _, err := routerOver(t, time.Second, a.URL, b.URL).AddBatch(objs); err != nil {
		t.Fatal(err)
	}
	for i, f := range []*fakePartition{a, b} {
		posts := f.seen()
		if len(posts) != 1 {
			t.Fatalf("partition %d saw %d POSTs, want 1", i, len(posts))
		}
		if p := posts[0]; p.body != want {
			t.Errorf("partition %d body\n got %s\nwant %s", i, p.body, want)
		} else if p.contentLength != int64(len(want)) || len(p.encoding) != 0 || p.contentType != "application/json" {
			t.Errorf("partition %d: Content-Length %d (want %d), Transfer-Encoding %v, Content-Type %q",
				i, p.contentLength, len(want), p.encoding, p.contentType)
		}
	}
}

// TestRouterDecodesAnyJSONReply: a partition need not be this repo's
// server. A reply that is pretty-printed, key-reordered, escape-laden
// and carries keys the router does not know decodes (through the
// encoding/json fall-back) to the same deliveries as the canonical one.
func TestRouterDecodesAnyJSONReply(t *testing.T) {
	objs := []paretomon.Object{{Name: "o1", Values: []string{"a"}}, {Name: "o 2", Values: []string{"b"}}, {Name: "o3", Values: []string{"c"}}}
	canonical := `{"deliveries":[{"object":"o1","users":["béa","u1"]},{"object":"o 2","users":[]},{"object":"o3","users":["u<2>"]}]}` + "\n"
	exotic := `{
  "took_ms": 3,
  "deliveries": [
    {"users": ["b\u00e9a", "\u00751"], "object": "o1", "seq": [1, {"x": null}]},
    {"Object": "o\u00202", "USERS": []},
    {"object": "ignored, the last one wins", "object": "o3", "users": ["u\u003c2\u003e"]}
  ]
}`
	var got [2][]paretomon.Delivery
	for i, reply := range []string{canonical, exotic} {
		// Two partitions answering alike: the merged delivery is the
		// deduplicated union, so it equals either one's.
		a, b := newFakePartition(t, reply), newFakePartition(t, reply)
		ds, err := routerOver(t, time.Second, a.URL, b.URL).AddBatch(objs)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got[i] = ds
	}
	want := []paretomon.Delivery{{Object: "o1", Users: []string{"béa", "u1"}}, {Object: "o 2", Users: []string{}}, {Object: "o3", Users: []string{"u<2>"}}}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("canonical reply decoded to %#v, want %#v", got[0], want)
	}
	if !reflect.DeepEqual(got[1], got[0]) {
		t.Errorf("exotic reply decoded to %#v, canonical to %#v", got[1], got[0])
	}
}

// TestRouterResendsOnlyUnappliedSuffix: a partition that crashed after
// applying a prefix of the batch gets the same body under the same batch
// id on the retry; it skips the prefix it applied, applies only the
// remainder, and reply and fleet end exactly the reference's.
func TestRouterResendsOnlyUnappliedSuffix(t *testing.T) {
	com := testCommunity(t, 16)
	f := startFleet(t, com, 2)
	defer f.close()
	objs := stream(8)
	const applied = 3

	var mu sync.Mutex
	var posts []string
	backend := f.https[0].Config.Handler
	flaky := httptest.NewServer(postOnly(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/objects/batch" {
			backend.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		posts = append(posts, string(body))
		first := len(posts) == 1
		mu.Unlock()
		if first {
			// The crash: a prefix reaches the backend, the reply is lost.
			prefix := httptest.NewRequest(http.MethodPost, "/objects/batch", strings.NewReader(string(wire.AppendBatch(nil, objs[:applied]))))
			prefix.Header = r.Header
			backend.ServeHTTP(httptest.NewRecorder(), prefix)
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error": "injected: crashed mid-batch"}`)
			return
		}
		r.Body = io.NopCloser(strings.NewReader(string(body)))
		backend.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	rt := routerOver(t, 5*time.Second, flaky.URL, f.https[1].URL)
	want, err := f.ref.AddBatch(objs)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := rt.AddBatch(objs)
	if err != nil {
		t.Fatalf("AddBatch through the crashing partition: %v", err)
	}
	if !reflect.DeepEqual(want, ds) {
		t.Fatalf("deliveries after the crash:\nreference %v\nrouter    %v", want, ds)
	}
	whole := string(wire.AppendBatch(nil, objs))
	if len(posts) != 2 || posts[0] != whole || posts[1] != whole {
		t.Fatalf("POSTs to the crashing partition:\n got %q\nwant the whole batch twice %q", posts, whole)
	}
	if rs, ms := rt.Stats(), f.ref.Stats(); rs.Processed != ms.Processed {
		t.Fatalf("Processed after resume: router %d, reference %d", rs.Processed, ms.Processed)
	}
	f.router = rt
	assertIdentical(t, f, len(objs))
}
