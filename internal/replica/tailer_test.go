package replica

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestTailerReconnectDelays scripts a primary's answers to successive
// GET /wal requests and records the delays the Tailer sleeps between
// them. A stream that applied a record, and the first of a run of
// streams that end without one, are followed at once; later empty
// streams back off exponentially from minBackoff. Failed connects back
// off exponentially up to maxBackoff, from minBackoff before the first
// stream and from restartBackoff after one.
func TestTailerReconnectDelays(t *testing.T) {
	const empty, down = -1, 0 // a stream of one head watermark; a 503
	// Each entry is the seq of the one record a stream ships, or empty
	// or down. The request after the script ends the run.
	script := []int{down, 1, 2, empty, empty, empty, empty, empty, empty, empty, empty, empty,
		down, down, down, down, down, down, down, down, down, down, down, 3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var afters []string // each request's after=
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		i := len(afters)
		afters = append(afters, r.URL.Query().Get("after"))
		switch {
		case i == len(script):
			cancel()
			fallthrough
		case script[i] == down:
			http.Error(w, "primary down", http.StatusServiceUnavailable)
		case script[i] == empty:
			w.Header().Set(SeqHeader, afters[i])
			_ = WriteHead(w, 0)
		default:
			w.Header().Set(SeqHeader, strconv.Itoa(script[i]))
			_ = WriteRecord(w, storage.Record{Seq: uint64(script[i]), Op: storage.OpRemoveObject, Name: "o"})
		}
	}))
	defer ts.Close()

	var delays []time.Duration
	defer func(real func(context.Context, time.Duration) bool) { sleep = real }(sleep)
	sleep = func(ctx context.Context, d time.Duration) bool {
		delays = append(delays, d)
		return ctx.Err() == nil
	}
	var applied uint64
	tl := &Tailer{Client: NewClient(ts.URL), Hooks: Hooks{
		Applied: func() uint64 { return applied },
		Apply:   func(rec storage.Record) error { applied = rec.Seq; return nil },
	}}
	if err := tl.Run(ctx); err != nil || applied != 3 {
		t.Fatalf("Run: %v, applied %d, want nil, 3", err, applied)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := strings.Fields("0 0 1 " + strings.Repeat("2 ", 21) + "3"); !slices.Equal(afters, want) {
		t.Errorf("after= %v, want %v", afters, want)
	}
	// The 503 before any stream; the second to ninth empty stream.
	want := []time.Duration{minBackoff}
	for i := range 8 {
		want = append(want, min(minBackoff<<i, maxBackoff))
	}
	for i := range 11 { // the eleven 503s: 10ms … 2.56s, 5s, 5s
		want = append(want, min(restartBackoff<<i, maxBackoff))
	}
	want = append(want, restartBackoff) // the 503 that ends the run
	if !slices.Equal(delays, want) {
		t.Errorf("delays %v, want %v", delays, want)
	}
}
