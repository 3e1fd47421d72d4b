package partition_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/wire"
)

// faultConn damages one frame on the partition's end of an ingest
// stream, once per test: the first request frame it reads (reply false)
// or the first reply frame it writes (reply true) is torn, claims a
// length past the cap, or fails its CRC; or that reply is never sent
// while the connection stays open (silent).
type faultConn struct {
	net.Conn
	fault string // torn, oversized, crc, silent
	reply bool
	armed *atomic.Bool
	read  int // request bytes read so far
}

func (c *faultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.reply || !c.armed.Load() {
		return n, err
	}
	for i := range p[:n] {
		switch off := c.read + i; {
		case c.fault == "torn" && off == wire.FrameHeader+3:
			c.armed.Store(false)
			return i, io.EOF
		case c.fault == "oversized" && off >= 1 && off <= 4:
			p[i] = 0xff
		case c.fault == "crc" && off == wire.FrameHeader:
			p[i] ^= 1
		}
	}
	c.read += n
	if c.read > wire.FrameHeader && c.fault != "torn" {
		c.armed.Store(false)
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if !c.reply || len(p) == 0 || p[0] != wire.TagReply || !c.armed.CompareAndSwap(true, false) {
		return c.Conn.Write(p)
	}
	p = append([]byte(nil), p...)
	switch c.fault {
	case "torn":
		_, _ = c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return len(p) / 2, io.ErrClosedPipe
	case "oversized":
		binary.LittleEndian.PutUint32(p[1:], 0xffffffff)
	case "crc":
		p[len(p)-1] ^= 1
	case "silent":
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// faultWriter hands its handler a faultConn when it hijacks.
type faultWriter struct {
	http.ResponseWriter
	wrap func(net.Conn) net.Conn
}

func (w faultWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	conn, brw, err := http.NewResponseController(w.ResponseWriter).Hijack()
	if err != nil {
		return nil, nil, err
	}
	if brw.Reader.Buffered() > 0 {
		return nil, nil, errors.New("bytes arrived before the 101")
	}
	fc := w.wrap(conn)
	return fc, bufio.NewReadWriter(bufio.NewReader(fc), bufio.NewWriter(fc)), nil
}

// TestStreamFaultsApplyOnce: a torn, oversized or bad-CRC frame, on the
// way to the partition (the batch was not applied) or back (it was),
// closes the stream; the router re-sends the batch under its id on a new
// stream, and it lands exactly once — the reply and the stream position
// are the reference's, and no batch went as a POST. The new stream
// outlives the attempt that opened it: the next batch goes out on it.
func TestStreamFaultsApplyOnce(t *testing.T) {
	for _, reply := range []bool{false, true} {
		for _, fault := range []string{"torn", "oversized", "crc"} {
			name := map[bool]string{false: "request", true: "reply"}[reply] + "/" + fault
			t.Run(name, func(t *testing.T) {
				com := testCommunity(t, 24)
				f := startFleet(t, com, 2)
				defer f.close()
				var armed atomic.Bool
				armed.Store(true)
				var opens, posts atomic.Int32
				backend := f.https[0].Config.Handler
				flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					switch r.URL.Path {
					case "/objects/stream":
						opens.Add(1)
						backend.ServeHTTP(faultWriter{w, func(c net.Conn) net.Conn {
							return &faultConn{Conn: c, fault: fault, reply: reply, armed: &armed}
						}}, r)
					case "/objects/batch":
						posts.Add(1)
						backend.ServeHTTP(w, r)
					default:
						backend.ServeHTTP(w, r)
					}
				}))
				defer flaky.Close()
				rt := newRouter(t, partition.Config{URLs: []string{flaky.URL, f.https[1].URL}})
				defer rt.Close()

				objs := stream(12)
				want, err := f.ref.AddBatch(objs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.AddBatch(objs)
				if err != nil {
					t.Fatalf("AddBatch through the damaged stream: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("deliveries:\nreference %v\nrouter    %v", want, got)
				}
				if armed.Load() {
					t.Fatal("the fault never fired")
				}
				if n, p := opens.Load(), posts.Load(); n != 2 || p != 0 {
					t.Fatalf("%d streams opened and %d POSTs, want 2 and 0", n, p)
				}
				if got, want := f.mons[0].Stats().Processed, f.ref.Stats().Processed; got != want {
					t.Fatalf("partition 0 processed %d objects, the reference %d", got, want)
				}
				// The next batch goes out on the stream the retry opened.
				more := stream(16)[12:]
				if _, err := f.ref.AddBatch(more); err != nil {
					t.Fatal(err)
				}
				if _, err := rt.AddBatch(more); err != nil || opens.Load() != 2 {
					t.Fatalf("the next batch: %v, %d streams opened", err, opens.Load())
				}
				f.router = rt
				assertIdentical(t, f, 16)
			})
		}
	}
}

// TestStreamExchangeFencedByLease: under router HA an exchange lasts at
// most the write lease that covered it. A partition that never answers
// a frame, its connection open, holds the batch until the lease's
// deadline closes the stream; the retry renews the lease and re-sends
// the batch on a new stream, where it lands once, long before the retry
// budget runs out.
func TestStreamExchangeFencedByLease(t *testing.T) {
	com := testCommunity(t, 12)
	plan, err := partition.NewPlan(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	var opens atomic.Int32
	mons, urls := faultyFleet(t, com, plan, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/objects/stream" {
				opens.Add(1)
				w = faultWriter{w, func(c net.Conn) net.Conn {
					return &faultConn{Conn: c, fault: "silent", reply: true, armed: &armed}
				}}
			}
			h.ServeHTTP(w, r)
		})
	})
	const ttl = 150 * time.Millisecond
	rt := newRouter(t, partition.Config{URLs: urls, RetryBudget: 20 * time.Second, RouterID: "ra", LeaseTTL: ttl})
	defer rt.Close()
	objs := stream(6)
	start := time.Now()
	if _, err := rt.AddBatch(objs); err != nil {
		t.Fatalf("AddBatch past a silent partition: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("the batch took %v: the exchange was not cut at the lease's deadline", elapsed)
	}
	if armed.Load() || opens.Load() != 2 {
		t.Fatalf("fault fired %v, %d streams opened; want a silent reply and 2 streams", !armed.Load(), opens.Load())
	}
	for i, m := range mons {
		if got := m.Stats().Processed; got != uint64(len(objs)) {
			t.Fatalf("partition %d processed %d objects, want %d", i, got, len(objs))
		}
	}
}

// TestStreamUpgradeAnswers: a partition that answers the first upgrade
// with a status saying it has no stream (404, 426) gets POSTs from then
// on; one that answers anything else (503 while closing, 429) gets that
// batch as a POST and the next one over the stream.
func TestStreamUpgradeAnswers(t *testing.T) {
	for _, tc := range []struct {
		status       int
		opens, posts int32
	}{
		{http.StatusServiceUnavailable, 2, 1},
		{http.StatusTooManyRequests, 2, 1},
		{http.StatusNotFound, 1, 2},
		{http.StatusUpgradeRequired, 1, 2},
	} {
		t.Run(strconv.Itoa(tc.status), func(t *testing.T) {
			com := testCommunity(t, 24)
			f := startFleet(t, com, 2)
			defer f.close()
			var opens, posts atomic.Int32
			backend := f.https[0].Config.Handler
			refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/objects/stream":
					if opens.Add(1) == 1 {
						http.Error(w, "not now", tc.status)
						return
					}
				case "/objects/batch":
					posts.Add(1)
				}
				backend.ServeHTTP(w, r)
			}))
			defer refusing.Close()
			rt := newRouter(t, partition.Config{URLs: []string{refusing.URL, f.https[1].URL}})
			defer rt.Close()
			objs := stream(16)
			for _, batch := range [][]paretomon.Object{objs[:8], objs[8:]} {
				want, err := f.ref.AddBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.AddBatch(batch)
				if err != nil {
					t.Fatalf("AddBatch: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("deliveries:\nreference %v\nrouter    %v", want, got)
				}
			}
			if n, p := opens.Load(), posts.Load(); n != tc.opens || p != tc.posts {
				t.Fatalf("%d upgrades asked and %d POSTs, want %d and %d", n, p, tc.opens, tc.posts)
			}
			f.router = rt
			assertIdentical(t, f, 16)
		})
	}
}

// hideHijack wraps a ResponseWriter without Hijack or Unwrap, as a
// telemetry or tracing wrapper does: the partition answers the upgrade
// 501, and the router sends POSTs.
type hideHijack struct{ http.ResponseWriter }

// BenchmarkRouterAddBatch sends batches of 16 through a Router over two
// in-process partitions of 16 users each, on a client that keeps one
// connection per partition, as the benchmark's routed_2p workload does:
// over the ingest stream, and as POSTs through handlers that cannot
// hijack (the fallback, which the benchmark's traced runs take).
func BenchmarkRouterAddBatch(b *testing.B) {
	for _, transport := range []string{"stream", "post"} {
		b.Run(transport, func(b *testing.B) {
			com := testCommunity(b, 32)
			plan, err := partition.NewPlan(2, 0)
			if err != nil {
				b.Fatal(err)
			}
			var urls []string
			for i := range 2 {
				mon, err := paretomon.NewMonitor(com.Subset(func(name string) bool { return plan.Owner(name) == i }),
					paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify))
				if err != nil {
					b.Fatal(err)
				}
				defer mon.Close()
				var h http.Handler = server.New(mon)
				if transport == "post" {
					srv := h
					h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { srv.ServeHTTP(hideHijack{w}, r) })
				}
				hs := httptest.NewServer(h)
				defer hs.Close()
				urls = append(urls, hs.URL)
			}
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			rt, err := partition.New(partition.Config{URLs: urls, Client: client})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			vals := stream(256)
			batch := make([]paretomon.Object, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				for j := range batch {
					batch[j] = paretomon.Object{Name: "b" + strconv.Itoa(i*len(batch)+j), Values: vals[(i*len(batch)+j)%len(vals)].Values}
				}
				if _, err := rt.AddBatch(batch); err != nil {
					b.Fatal(fmt.Errorf("batch %d: %w", i, err))
				}
			}
			b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "obj/s")
		})
	}
}

// jsonStreamOnly serves h as a partition whose ingest stream carries
// JSON bodies under the token "paretomon-batch" would: an upgrade to any
// other token is answered 426, naming its own.
func jsonStreamOnly(h http.Handler, opens *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects/stream" {
			opens.Add(1)
			if r.Header.Get("Upgrade") != "paretomon-batch" {
				w.Header().Set("Connection", "Upgrade")
				w.Header().Set("Upgrade", "paretomon-batch")
				http.Error(w, `{"error":"GET /objects/stream needs Connection: Upgrade and Upgrade: paretomon-batch"}`, http.StatusUpgradeRequired)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestStreamTokenNegotiation: the binary payload has a token of its own.
// A partition that speaks only the JSON-bodied "paretomon-batch" answers
// a router's upgrade 426, and gets every batch as a POST with the
// reference's deliveries; a router that asks a partition for the old
// token is answered 426, naming the new one.
func TestStreamTokenNegotiation(t *testing.T) {
	com := testCommunity(t, 24)
	f := startFleet(t, com, 2)
	defer f.close()
	var opens, posts atomic.Int32
	backend := f.https[0].Config.Handler
	old := httptest.NewServer(jsonStreamOnly(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects/batch" {
			posts.Add(1)
		}
		backend.ServeHTTP(w, r)
	}), &opens))
	defer old.Close()
	rt := newRouter(t, partition.Config{URLs: []string{old.URL, f.https[1].URL}})
	defer rt.Close()
	objs := stream(24)
	for _, batch := range [][]paretomon.Object{objs[:8], objs[8:16], objs[16:]} {
		want, err := f.ref.AddBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.AddBatch(batch)
		if err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("deliveries:\nreference %v\nrouter    %v", want, got)
		}
	}
	if n, p := opens.Load(), posts.Load(); n != 1 || p != 3 {
		t.Fatalf("%d upgrades asked and %d POSTs, want 1 and 3", n, p)
	}
	f.router = rt
	assertIdentical(t, f, 24)

	req, err := http.NewRequest(http.MethodGet, f.https[1].URL+"/objects/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "paretomon-batch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != wire.StreamProtocol {
		t.Fatalf("an upgrade to the old token: %s, Upgrade %q; want 426, %q", resp.Status, resp.Header.Get("Upgrade"), wire.StreamProtocol)
	}
}

// TestRouterRefusesInvalidUTF8: a batch with a name or value that is not
// valid UTF-8 is refused with ErrInvalidUTF8 at once, before any
// partition applies it. POST /objects/batch would have carried it as
// U+FFFD: the partitions applied an object the batch does not name, and
// the router took their replies for lost ones until its budget ran out.
func TestRouterRefusesInvalidUTF8(t *testing.T) {
	com := testCommunity(t, 12)
	f := startFleet(t, com, 2)
	defer f.close()
	rt := newRouter(t, partition.Config{URLs: []string{f.https[0].URL, f.https[1].URL}, RetryBudget: 2 * time.Second})
	defer rt.Close()
	vals := stream(1)[0].Values
	bad := append([]string{"bad\xffvalue"}, vals[1:]...)
	for _, o := range []paretomon.Object{{Name: "bad\xffname", Values: vals}, {Name: "o", Values: bad}} {
		start := time.Now()
		_, err := rt.AddBatch([]paretomon.Object{o})
		if elapsed := time.Since(start); err == nil || errors.Is(err, partition.ErrPartitionDown) || elapsed > time.Second {
			t.Fatalf("AddBatch of %q: %v after %v, want an immediate refusal", o, err, elapsed)
		}
		if !errors.Is(err, partition.ErrInvalidUTF8) {
			t.Fatalf("AddBatch of %q: %v, want ErrInvalidUTF8", o, err)
		}
	}
	for i, m := range f.mons {
		if n := m.Stats().Processed; n != 0 {
			t.Fatalf("partition %d processed %d objects, want none", i, n)
		}
	}
}
