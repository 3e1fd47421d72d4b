package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// collectFeed tails ts's /wal from after and returns the records
// received until n arrive (or the deadline passes), plus the last head
// watermark seen.
func collectFeed(t *testing.T, base string, after uint64, n int) ([]storage.Record, uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := replica.NewClient(base)
	stream, err := cl.Tail(ctx, after)
	if err != nil {
		t.Fatalf("Tail(%d): %v", after, err)
	}
	defer stream.Close()
	var recs []storage.Record
	head := stream.Head
	for len(recs) < n {
		msg, err := stream.Next()
		if err != nil {
			t.Fatalf("feed ended after %d records: %v", len(recs), err)
		}
		if msg.IsHead {
			head = msg.Head
			continue
		}
		recs = append(recs, msg.Rec)
	}
	return recs, head
}

// TestChangefeedServesRecords: a durable server ships every WAL record
// over /wal in order, with head watermarks, resuming from any position.
func TestChangefeedServesRecords(t *testing.T) {
	ts, _, _, _ := newDurableTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","quad"]}`)
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Lenovo","dual"]}`)
	post(t, ts.URL+"/preferences", `{"user":"alice","attribute":"CPU","better":"quad","worse":"dual"}`)

	recs, head := collectFeed(t, ts.URL, 0, 3)
	if head != 3 {
		t.Errorf("head = %d, want 3", head)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if recs[0].Op != storage.OpObject || recs[0].Name != "o1" {
		t.Errorf("rec1 = %+v", recs[0])
	}
	if recs[2].Op != storage.OpPreference || recs[2].User != "alice" {
		t.Errorf("rec3 = %+v", recs[2])
	}

	// Resume mid-log: only the tail is shipped.
	recs, _ = collectFeed(t, ts.URL, 2, 1)
	if recs[0].Seq != 3 {
		t.Errorf("resume from 2: first seq %d, want 3", recs[0].Seq)
	}
}

// TestChangefeedLongPollsAtTail: a caught-up stream delivers a record
// appended after the stream opened.
func TestChangefeedLongPollsAtTail(t *testing.T) {
	ts, _, _, _ := newDurableTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","quad"]}`)

	done := make(chan storage.Record, 1)
	go func() {
		recs, _ := collectFeed(t, ts.URL, 1, 1)
		done <- recs[0]
	}()
	time.Sleep(50 * time.Millisecond) // let the stream reach the tail
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Lenovo","dual"]}`)
	select {
	case rec := <-done:
		if rec.Seq != 2 || rec.Name != "o2" {
			t.Errorf("long-polled record = %+v", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never delivered the appended record")
	}
}

// TestSnapshotLatest: 404 before any snapshot, then the newest body with
// its seq after POST /snapshot.
func TestSnapshotLatest(t *testing.T) {
	ts, _, _, _ := newDurableTestServer(t)
	cl := replica.NewClient(ts.URL)
	ctx := context.Background()

	if _, _, ok, err := cl.Snapshot(ctx); err != nil || ok {
		t.Fatalf("before snapshot: ok=%v err=%v, want absent", ok, err)
	}
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","quad"]}`)
	post(t, ts.URL+"/snapshot", "")
	seq, body, ok, err := cl.Snapshot(ctx)
	if err != nil || !ok {
		t.Fatalf("after snapshot: ok=%v err=%v", ok, err)
	}
	if seq != 1 {
		t.Errorf("snapshot seq = %d, want 1", seq)
	}
	if _, err := storage.UnmarshalSnapshot(body); err != nil {
		t.Errorf("snapshot body does not decode: %v", err)
	}
}

// TestChangefeedWithoutStore: both replication endpoints are 501 on a
// monitor built without a store.
func TestChangefeedWithoutStore(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/wal", "/snapshot/latest"} {
		if resp, _ := send(t, "GET", ts.URL+path, ""); resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("GET %s without store: %d, want 501", path, resp.StatusCode)
		}
	}
}

// TestChangefeedRetired: after snapshots let Prune retire old WAL
// segments, a feed request below the floor is 410 Gone.
func TestChangefeedRetired(t *testing.T) {
	s := paretomon.NewSchema("brand")
	com := paretomon.NewCommunity(s)
	u, err := com.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.PreferChain("brand", "a0", "a1"); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SegmentBytes = 128 // force frequent segment rolls so Prune has work
	mon, err := paretomon.NewMonitor(com,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
		paretomon.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(server.New(mon))
	t.Cleanup(ts.Close)

	// Three snapshot generations: keepSnapshots = 2, so the first
	// snapshot's floor advances and the earliest segments get pruned.
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			if _, err := mon.Add(objName(round, i), "v"); err != nil {
				t.Fatal(err)
			}
		}
		if err := mon.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	if resp, _ := send(t, "GET", ts.URL+"/wal?after=0", ""); resp.StatusCode != http.StatusGone {
		t.Fatalf("GET /wal?after=0 after prune: %d, want 410", resp.StatusCode)
	}
	if _, err := replica.NewClient(ts.URL).Tail(context.Background(), 0); !errors.Is(err, replica.ErrGone) {
		t.Fatalf("client Tail(0): %v, want ErrGone", err)
	}
	// The retained tail still serves.
	recs, _ := collectFeed(t, ts.URL, mon.AppliedSeq()-1, 1)
	if recs[0].Seq != mon.AppliedSeq() {
		t.Errorf("tail record seq = %d, want %d", recs[0].Seq, mon.AppliedSeq())
	}
}

func objName(round, i int) string {
	return "r" + strings.Repeat("x", round+1) + "-" + strings.Repeat("y", i+1)
}

// TestServerCloseCancelsStreams: Close must end an idle changefeed
// long-poll and an SSE subscription instead of leaving them hanging.
func TestServerCloseCancelsStreams(t *testing.T) {
	s := paretomon.NewSchema("brand", "CPU")
	com := paretomon.NewCommunity(s)
	alice, err := com.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.PreferChain("brand", "Apple", "Lenovo"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mon, err := paretomon.Open(com, dir, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mon.Close() })
	srv := server.New(mon)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	streamEnded := func(path string) chan error {
		ch := make(chan error, 1)
		go func() {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				ch <- err
				return
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body) // blocks until the server ends the stream
			ch <- err
		}()
		return ch
	}
	walDone := streamEnded("/wal")
	sseDone := streamEnded("/subscribe/alice")
	time.Sleep(100 * time.Millisecond) // let both streams reach their wait loops

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]chan error{"wal": walDone, "subscribe": sseDone} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s stream still open after Server.Close", name)
		}
	}
}

// TestDeleteObjectNamedBatch: the Go 1.22 patterns resolve method before
// path specificity, so the "POST /objects/batch" literal no longer
// shadows deleting an object that is literally named "batch".
func TestDeleteObjectNamedBatch(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"batch","values":["Apple","quad"]}`)
	if resp, _ := send(t, http.MethodDelete, ts.URL+"/objects/batch", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /objects/batch: %d", resp.StatusCode)
	}
	if r2, _ := send(t, "GET", ts.URL+"/targets/batch", ""); r2.StatusCode != http.StatusNotFound {
		t.Errorf("object %q still known after delete: %d", "batch", r2.StatusCode)
	}
}

// TestStorageStatsReplicationFields: /storage/stats surfaces the log
// head and the cursor of every active feed stream.
func TestStorageStatsReplicationFields(t *testing.T) {
	ts, _, _, _ := newDurableTestServer(t)
	post(t, ts.URL+"/objects", `{"name":"o1","values":["Apple","quad"]}`)
	post(t, ts.URL+"/objects", `{"name":"o2","values":["Lenovo","dual"]}`)

	// Hold a caught-up feed open so it shows in the stats.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := replica.NewClient(ts.URL).Tail(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := 0; i < 2; i++ { // drain the two records so the cursor advances
		msg, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if msg.IsHead {
			i--
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := get(t, ts.URL+"/storage/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /storage/stats: %d", resp.StatusCode)
		}
		if body["last_appended_seq"].(float64) != 2 {
			t.Fatalf("last_appended_seq = %v, want 2", body["last_appended_seq"])
		}
		feeds, ok := body["feeds"].([]any)
		if !ok {
			t.Fatalf("feeds = %v", body["feeds"])
		}
		if len(feeds) == 1 && feeds[0].(map[string]any)["cursor"].(float64) == 2 {
			return // cursor caught up with the head
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed cursor never reached head: %v", body["feeds"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
