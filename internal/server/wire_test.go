package server_test

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

// The ingest endpoints speak through internal/wire's hand-written codec.
// These tests pin the bytes on the wire — replies, error bodies and SSE
// frames — to what encoding/json produced before that codec existed
// (the expectations were recorded at the commit before it).

// awkward is a user name every escaping rule of encoding/json touches:
// HTML characters, a quote, a backslash, U+2028 and a control byte.
const awkward = "b<o>b & \"q\" \\ \u2028\x01"

// awkwardJSON is how encoding/json writes it.
const awkwardJSON = `"b\u003co\u003eb \u0026 \"q\" \\ \u2028\u0001"`

// goldenCommunity is two users with the same taste, so every delivery
// names both, the awkward one included.
func goldenCommunity(t *testing.T) *paretomon.Community {
	t.Helper()
	com := paretomon.NewCommunity(paretomon.NewSchema("brand", "CPU"))
	for _, name := range []string{"amy", awkward} {
		u, err := com.AddUser(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.PreferChain("brand", "Apple", "Lenovo", "Toshiba"); err != nil {
			t.Fatal(err)
		}
		if err := u.PreferChain("CPU", "quad", "dual", "single"); err != nil {
			t.Fatal(err)
		}
	}
	return com
}

func goldenMonitor(t *testing.T, com *paretomon.Community) *paretomon.Monitor {
	t.Helper()
	mon, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Close() })
	return mon
}

// goldenFacades serves the golden community twice: from a Server, and
// from a RouterServer over a two-partition fleet (one user each).
func goldenFacades(t *testing.T) map[string]string {
	t.Helper()
	com := goldenCommunity(t)
	single := httptest.NewServer(server.New(goldenMonitor(t, com)))
	t.Cleanup(single.Close)

	plan, err := partition.NewPlan(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for p := 0; p < 2; p++ {
		sub := com.Subset(func(name string) bool { return plan.Owner(name) == p })
		if sub.Len() != 1 {
			t.Fatalf("partition %d owns %d users, want 1: rename the golden users", p, sub.Len())
		}
		hs := httptest.NewServer(server.New(goldenMonitor(t, sub)))
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
	}
	rt, err := partition.New(partition.Config{URLs: urls, RetryBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	routed := httptest.NewServer(server.NewRouter(rt))
	t.Cleanup(routed.Close)
	return map[string]string{"Server": single.URL, "RouterServer": routed.URL}
}

func postRaw(t *testing.T, url, body string) (status int, contentType, reply string) {
	t.Helper()
	resp, data := send(t, http.MethodPost, url, body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(data)
}

func TestIngestReplyBytes(t *testing.T) {
	both := `["amy",` + awkwardJSON + `]`
	steps := []struct {
		path, body string
		status     int
		reply      string
	}{
		// Canonical bodies: the codec's fast path.
		{"/objects", `{"name":"o<1>","values":["Lenovo","dual"]}`, 200,
			`{"object":"o\u003c1\u003e","users":` + both + `}` + "\n"},
		{"/objects", `{"name":"o2","values":["Toshiba","single"]}`, 200,
			`{"object":"o2","users":[]}` + "\n"},
		{"/objects/batch", `{"objects":[{"name":"o3","values":["Apple","dual"]},{"name":"o4","values":["Toshiba","dual"]},{"name":"o5","values":["Apple","quad"]}]}`, 200,
			`{"deliveries":[{"object":"o3","users":` + both + `},{"object":"o4","users":[]},{"object":"o5","users":` + both + `}]}` + "\n"},
		{"/objects/batch", `{"objects":[]}`, 200, `{"deliveries":[]}` + "\n"},
		// Bodies only encoding/json takes: reordered and case-folded keys,
		// escapes, an unknown key, a second value after the first.
		{"/objects", `{"VALUES":["Toshiba","single"],"extra":[1,{}],"name":"o\u0036 \u00e9"} {"name":"ignored"}`, 200,
			`{"object":"o6 é","users":[]}` + "\n"},
		{"/objects/batch", "{\n  \"objects\": [\n    {\"values\": [\"Apple\", \"quad\"], \"name\": \"o\\t7\"}\n  ]\n}\n", 200,
			`{"deliveries":[{"object":"o\t7","users":` + both + `}]}` + "\n"},
		{"/objects/batch", `{"objects":null}`, 200, `{"deliveries":[]}` + "\n"},
		// Rejections, in encoding/json's words.
		{"/objects", `{bad json`, 400,
			`{"error":"bad JSON: invalid character 'b' looking for beginning of object key string"}` + "\n"},
		{"/objects", ``, 400, `{"error":"bad JSON: EOF"}` + "\n"},
		{"/objects", `{"name":"o8","values":["Apple"`, 400, `{"error":"bad JSON: unexpected EOF"}` + "\n"},
		{"/objects", `{"name":8,"values":["Apple","quad"]}`, 400,
			`{"error":"bad JSON: json: cannot unmarshal number into Go struct field objectRequest.name of type string"}` + "\n"},
		{"/objects/batch", `{"objects":[{"name":"o8","values":"Apple"}]}`, 400,
			`{"error":"bad JSON: json: cannot unmarshal string into Go struct field objectRequest.objects.values of type []string"}` + "\n"},
		{"/objects/batch", `{"objects":[{"name":"o8","values":["Apple","quad"]},]}`, 400,
			`{"error":"bad JSON: invalid character ']' looking for beginning of value"}` + "\n"},
	}
	for facade, base := range goldenFacades(t) {
		for _, st := range steps {
			status, ct, reply := postRaw(t, base+st.path, st.body)
			if status != st.status || ct != "application/json" || reply != st.reply {
				t.Errorf("%s: POST %s %q\n got %d %s %q\nwant %d application/json %q", facade, st.path, st.body, status, ct, reply, st.status, st.reply)
			}
		}
	}
}

// TestSubscribeFrameBytes reads a /subscribe stream byte for byte: each
// event is "event: delivery\ndata: <delivery JSON>\n\n" with the names
// escaped as encoding/json escapes them.
func TestSubscribeFrameBytes(t *testing.T) {
	ts := httptest.NewServer(server.New(goldenMonitor(t, goldenCommunity(t))))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/subscribe/amy", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	postRaw(t, ts.URL+"/objects", `{"name":"o<1> & \"co\"","values":["Lenovo","dual"]}`)
	postRaw(t, ts.URL+"/objects", `{"name":"o2","values":["Apple","quad"]}`)

	want := "event: delivery\ndata: " + `{"object":"o\u003c1\u003e \u0026 \"co\"","users":["amy",` + awkwardJSON + `]}` + "\n\n" +
		"event: delivery\ndata: " + `{"object":"o2","users":["amy",` + awkwardJSON + `]}` + "\n\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(bufio.NewReader(resp.Body), got); err != nil {
		t.Fatalf("reading %d bytes of SSE: %v (got %q)", len(want), err, got)
	}
	if string(got) != want {
		t.Errorf("SSE stream\n got %q\nwant %q", got, want)
	}
}
