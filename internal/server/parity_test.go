package server_test

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/server"
)

// facadeReply is what a client can observe of one answer.
type facadeReply struct {
	status                   int
	contentType, allow, body string
}

// doRaw sends one request; a non-empty batch goes out as the
// X-Paretomon-Batch header.
func doRaw(t *testing.T, method, url, body, batch string) facadeReply {
	t.Helper()
	var header []string
	if batch != "" {
		header = []string{partition.BatchHeader, batch}
	}
	resp, data := send(t, method, url, body, header...)
	return facadeReply{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Allow"), string(data)}
}

// TestFacadeParity drives the shared route table's contract — the v3
// lifecycle, TestErrorPaths' table and the 404s for unknown users,
// objects and preferences — through both goldenFacades, step by step,
// and requires the same status, headers and body from each. Server and
// RouterServer serve those routes from one handler set over
// paretomon.Driver; this is what catches either side drifting.
//
// Where partition.Router itself answers differently as a Driver, not as
// a facade, a step sets routed to the RouterServer's status and only the
// statuses are pinned: Router.Add is an AddBatch of one, so a refused
// object is located as "batch object 0 (...)". A step's batch, when set,
// is sent as the X-Paretomon-Batch header, which RouterServer passes to
// every partition: a batch id's answers are byte-identical too.
func TestFacadeParity(t *testing.T) {
	awk := "/" + url.PathEscape(awkward)
	// pad left-pads a well-formed body to one byte over the body cap (a
	// JSON decoder stops at the end of the value, not of the body).
	pad := func(body string) string { return strings.Repeat(" ", server.MaxBodyBytes+1-len(body)) + body }
	steps := []struct {
		method, path, body string
		status, routed     int
		batch              string
	}{
		// Ingest and reads.
		{"POST", "/objects", `{"name":"o1","values":["Lenovo","dual"]}`, 200, 0, ""},
		{"POST", "/objects", `{"name":"o2","values":["Apple","quad"]}`, 200, 0, ""},
		{"POST", "/objects/batch", `{"objects":[{"name":"o3","values":["Toshiba","single"]},{"name":"o4","values":["Sony","dual"]}]}`, 200, 0, ""},
		{"GET", "/frontier/amy", "", 200, 0, ""},
		{"GET", "/frontier" + awk, "", 200, 0, ""},
		{"GET", "/targets/o1", "", 200, 0, ""},
		{"GET", "/targets/o4", "", 200, 0, ""},
		{"GET", "/users", "", 200, 0, ""},
		{"GET", "/clusters", "", 200, 0, ""},
		{"GET", "/healthz", "", 200, 0, ""},
		// Lifecycle.
		{"POST", "/users", `{"name":"cat","preferences":[{"attribute":"brand","better":"Sony","worse":"Apple"}]}`, 200, 0, ""},
		{"POST", "/users", `{"name":"cat","preferences":[]}`, 400, 0, ""},
		{"GET", "/frontier/cat", "", 200, 0, ""},
		{"GET", "/users", "", 200, 0, ""},
		{"POST", "/preferences", `{"user":"cat","attribute":"CPU","better":"quad","worse":"single"}`, 200, 0, ""},
		{"GET", "/frontier/cat", "", 200, 0, ""},
		{"DELETE", "/preferences", `{"user":"cat","attribute":"CPU","better":"quad","worse":"single"}`, 200, 0, ""},
		{"DELETE", "/preferences", `{"user":"cat","attribute":"CPU","better":"quad","worse":"single"}`, 404, 0, ""},
		{"DELETE", "/objects/o2", "", 200, 0, ""},
		{"DELETE", "/objects/o2", "", 404, 0, ""},
		{"GET", "/targets/o2", "", 404, 0, ""},
		{"GET", "/frontier/amy", "", 200, 0, ""},
		{"DELETE", "/users/cat", "", 200, 0, ""},
		{"DELETE", "/users/cat", "", 404, 0, ""},
		{"GET", "/frontier/cat", "", 404, 0, ""},
		// TestErrorPaths' table, over the golden community.
		{"GET", "/objects", "", 405, 0, ""},
		{"POST", "/objects", `{bad json`, 400, 0, ""},
		{"POST", "/objects", `{"name":"","values":["a","b"]}`, 400, 400, ""},
		{"POST", "/objects", `{"name":"x","values":["only-one"]}`, 400, 400, ""},
		{"GET", "/frontier/ghost", "", 404, 0, ""},
		{"GET", "/frontier/", "", 404, 0, ""},
		{"POST", "/frontier/amy", "", 405, 0, ""},
		{"POST", "/preferences", `{"user":"amy","attribute":"brand","better":"x","worse":"x"}`, 400, 0, ""},
		{"POST", "/stats", "", 405, 0, ""},
		{"POST", "/clusters", "", 405, 0, ""},
		// Unknown names, duplicates and malformed lifecycle bodies.
		{"GET", "/targets/ghost", "", 404, 0, ""},
		{"DELETE", "/objects/ghost", "", 404, 0, ""},
		{"DELETE", "/users/ghost", "", 404, 0, ""},
		{"POST", "/preferences", `{"user":"ghost","attribute":"brand","better":"a","worse":"b"}`, 404, 0, ""},
		{"DELETE", "/preferences", `{"user":"amy","attribute":"brand","better":"Toshiba","worse":"Sony"}`, 404, 0, ""},
		{"POST", "/preferences", `{"user":"amy","attribute":"nope","better":"a","worse":"b"}`, 400, 0, ""},
		{"POST", "/preferences", `{"user":"amy","attribute":"brand","better":"Toshiba","worse":"Apple"}`, 400, 0, ""},
		{"POST", "/objects", `{"name":"o1","values":["Apple","dual"]}`, 400, 400, ""},
		{"POST", "/objects/batch", `{"objects":[{"name":"b1","values":["Apple","dual"]},{"name":"o1","values":["Apple","dual"]}]}`, 400, 0, ""},
		{"GET", "/targets/b1", "", 404, 0, ""},
		{"POST", "/users", `{bad`, 400, 0, ""},
		{"DELETE", "/preferences", `{bad`, 400, 0, ""},
		// Over the body cap: refused whole, before it is decoded.
		{"POST", "/objects/batch", pad(`{"objects":[{"name":"big","values":["Apple","dual"]}]}`), 413, 0, ""},
		{"GET", "/targets/big", "", 404, 0, ""},
		{"POST", "/users", pad(`{"name":"big","preferences":[]}`), 413, 0, ""},
		{"GET", "/frontier/big", "", 404, 0, ""},
		// Batch ids: a re-sent batch is answered as first computed, a
		// stale seq or other names under the last id conflict, and a
		// malformed id is refused; none of the refusals ingests anything.
		{"POST", "/objects/batch", `{"objects":[{"name":"i1","values":["Sony","quad"]},{"name":"i2","values":["Apple","single"]}]}`, 200, 0, "feed-1/2"},
		{"POST", "/objects/batch", `{"objects":[{"name":"i1","values":["Sony","quad"]},{"name":"i2","values":["Apple","single"]}]}`, 200, 0, "feed-1/2"},
		{"GET", "/frontier/amy", "", 200, 0, ""},
		{"POST", "/objects/batch", `{"objects":[{"name":"i1","values":["Sony","quad"]},{"name":"i2","values":["Apple","single"]}]}`, 409, 0, "feed-1/1"},
		{"POST", "/objects/batch", `{"objects":[{"name":"i2","values":["Apple","single"]},{"name":"i3","values":["Apple","single"]}]}`, 409, 0, "feed-1/2"},
		{"POST", "/objects/batch", `{"objects":[{"name":"i3","values":["Apple","single"]}]}`, 400, 0, "feed-1"},
		{"POST", "/objects/batch", `{"objects":[{"name":"i3","values":["Apple","single"]}]}`, 400, 0, "feed 1/3"},
		{"POST", "/objects/batch", `{"objects":[{"name":"i3","values":["Apple","single"]}]}`, 400, 0, "feed-1/0"},
		{"GET", "/targets/i3", "", 404, 0, ""},
	}
	bases := goldenFacades(t)
	firstReply := map[string]facadeReply{} // by batch id and body
	for _, st := range steps {
		var count facadeReply
		if st.status == http.StatusRequestEntityTooLarge {
			count = doRaw(t, "GET", bases["Server"]+"/objects/count", "", "")
		}
		single := doRaw(t, st.method, bases["Server"]+st.path, st.body, st.batch)
		routed := doRaw(t, st.method, bases["RouterServer"]+st.path, st.body, st.batch)
		if single.status != st.status {
			t.Errorf("%s %s %.80s: Server answered %d, want %d: %q", st.method, st.path, st.body, single.status, st.status, single.body)
		}
		if st.routed != 0 {
			if routed.status != st.routed {
				t.Errorf("%s %s %.80s: RouterServer answered %d, want %d: %q", st.method, st.path, st.body, routed.status, st.routed, routed.body)
			}
		} else if routed != single {
			t.Errorf("%s %s %.80s: the facades differ\n      Server %+v\nRouterServer %+v", st.method, st.path, st.body, single, routed)
		}
		if st.batch != "" && single.status == http.StatusOK {
			if first, ok := firstReply[st.batch+st.body]; ok && first != single {
				t.Errorf("batch %s re-sent: answered %q, first %q", st.batch, single.body, first.body)
			}
			firstReply[st.batch+st.body] = single
		}
		if st.status == http.StatusRequestEntityTooLarge {
			if after := doRaw(t, "GET", bases["Server"]+"/objects/count", "", ""); after != count {
				t.Errorf("%s %s over the body cap moved the object count: %s -> %s", st.method, st.path, count.body, after.body)
			}
		}
	}
}
