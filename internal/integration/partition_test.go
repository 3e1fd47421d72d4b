package integration_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

// partitionAttrs / partitionVals define the synthetic schema used by
// the partition fleet tests.
var (
	partitionAttrs = []string{"a", "b", "c"}
	partitionVals  = []string{"v0", "v1", "v2", "v3", "v4"}
)

// partitionCommunity builds a deterministic community: user i's chain
// on each attribute is rotated by (i + attribute), so profiles differ
// and frontiers are user-specific.
func partitionCommunity(t *testing.T, users int) *paretomon.Community {
	t.Helper()
	com := paretomon.NewCommunity(paretomon.NewSchema(partitionAttrs...))
	for i := 0; i < users; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for d, attr := range partitionAttrs {
			chain := make([]string, len(partitionVals))
			for j := range partitionVals {
				chain[j] = partitionVals[(j+i+d)%len(partitionVals)]
			}
			if err := u.PreferChain(attr, chain...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return com
}

// partitionStream generates count deterministic objects (an LCG, no
// global rand) named o1..o<count>.
func partitionStream(count, seed int) []paretomon.Object {
	out := make([]paretomon.Object, count)
	s := uint64(seed)
	for i := range out {
		row := make([]string, len(partitionAttrs))
		for d := range row {
			s = s*6364136223846793005 + 1442695040888963407
			row[d] = partitionVals[s>>33%uint64(len(partitionVals))]
		}
		out[i] = paretomon.Object{Name: fmt.Sprintf("o%d", i+1), Values: row}
	}
	return out
}

// durablePartition is one partition process stand-in: a durable monitor
// behind a real net listener on a stable address, restartable in place.
type durablePartition struct {
	idx  int
	dir  string
	addr string
	plan *partition.Plan

	mon     *paretomon.Monitor
	srv     *server.Server
	httpSrv *http.Server
}

// start (re)opens the monitor from the data dir and serves it on the
// partition's fixed address.
func (p *durablePartition) start(t *testing.T, com *paretomon.Community) {
	t.Helper()
	sub := com.Subset(func(name string) bool { return p.plan.Owner(name) == p.idx })
	mon, err := paretomon.Open(sub, p.dir,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
		paretomon.WithSubscriptionBuffer(4096))
	if err != nil {
		t.Fatalf("partition %d: open: %v", p.idx, err)
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		t.Fatalf("partition %d: listen %s: %v", p.idx, p.addr, err)
	}
	p.mon = mon
	p.srv = server.New(mon)
	p.httpSrv = &http.Server{Handler: p.srv}
	go func(hs *http.Server) { _ = hs.Serve(ln) }(p.httpSrv)
}

// stop shuts the partition down gracefully: streams cancelled, in-
// flight requests drained, monitor closed (releasing the store lock so
// a restart can reopen the dir).
func (p *durablePartition) stop(t *testing.T) {
	t.Helper()
	_ = p.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.httpSrv.Shutdown(ctx)
	if err := p.mon.Close(); err != nil {
		t.Fatalf("partition %d: close: %v", p.idx, err)
	}
}

// sseDelta mirrors the /deltas SSE payload.
type sseDelta struct {
	Object  string   `json:"object"`
	Entered []string `json:"entered"`
	Left    []string `json:"left"`
}

// collectSSE reads "delta" events from an open SSE stream into out.
func collectSSE(t *testing.T, body *bufio.Scanner, out chan<- sseDelta) {
	for body.Scan() {
		line := body.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var d sseDelta
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
			t.Errorf("bad SSE payload %q: %v", line, err)
			return
		}
		out <- d
	}
}

// TestPartitionFleetRestartIdentity is the tentpole acceptance test: a
// 3-partition durable fleet behind a Router must stay frontier-,
// delivery- and counter-identical to a single monitor on the same
// stream — with one partition killed and restarted mid-run, the router
// retrying until its /readyz reports recovery — and a /deltas SSE
// stream proxied through the router server must carry the same events
// the single monitor publishes.
func TestPartitionFleetRestartIdentity(t *testing.T) {
	const nParts = 3
	com := partitionCommunity(t, 30)
	plan, err := partition.NewPlan(nParts, 0)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := paretomon.NewMonitor(com,
		paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
		paretomon.WithSubscriptionBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Reserve one stable address per partition, then start each from an
	// empty data dir.
	parts := make([]*durablePartition, nParts)
	urls := make([]string, nParts)
	for i := range parts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		parts[i] = &durablePartition{idx: i, dir: t.TempDir(), addr: addr, plan: plan}
		parts[i].start(t, com)
		urls[i] = "http://" + addr
		defer func(p *durablePartition) { p.stop(t) }(parts[i])
	}

	rt, err := partition.New(partition.Config{
		URLs:          urls,
		RetryBudget:   20 * time.Second,
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(server.NewRouter(rt))
	defer front.Close()

	if resp, err := http.Get(front.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet /readyz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Observe a user owned by a partition that is NOT restarted (the
	// restart kills partition 1's streams by design), over the router's
	// proxied SSE, against the reference monitor's direct subscription.
	observed := ""
	for i := 0; i < 30; i++ {
		if u := fmt.Sprintf("u%d", i); rt.Owner(u) != 1 {
			observed = u
			break
		}
	}
	refDeltas, cancelRef, err := ref.SubscribeDeltas(observed)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelRef()

	sseResp, err := http.Get(front.URL + "/deltas/" + observed)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("SSE subscribe: %d", sseResp.StatusCode)
	}
	gotDeltas := make(chan sseDelta, 4096)
	go collectSSE(t, bufio.NewScanner(sseResp.Body), gotDeltas)

	// Ingest 12 batches of 10. Before batch 6, kill partition 1 and
	// bring it back 300ms later — while the router is already retrying
	// the batch against it.
	objs := partitionStream(120, 7)
	restarted := make(chan struct{})
	for lo := 0; lo < len(objs); lo += 10 {
		hi := lo + 10
		if lo == 60 {
			parts[1].stop(t)
			go func() {
				defer close(restarted)
				time.Sleep(300 * time.Millisecond)
				parts[1].start(t, com)
			}()
		}
		want, err1 := ref.AddBatch(objs[lo:hi])
		got, err2 := rt.AddBatch(objs[lo:hi])
		if err1 != nil || err2 != nil {
			t.Fatalf("batch [%d,%d): ref %v, router %v", lo, hi, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch [%d,%d): deliveries differ:\nref:    %v\nrouter: %v", lo, hi, want, got)
		}
	}
	<-restarted

	// Frontiers and targets: byte-identical.
	for _, u := range ref.Users() {
		want, err1 := ref.Frontier(u)
		got, err2 := rt.Frontier(u)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("frontier(%s): ref %v (%v), router %v (%v)", u, want, err1, got, err2)
		}
	}
	for i := 1; i <= len(objs); i++ {
		name := fmt.Sprintf("o%d", i)
		want, err1 := ref.TargetsOf(name)
		got, err2 := rt.TargetsOf(name)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("targets(%s): ref %v (%v), router %v (%v)", name, want, err1, got, err2)
		}
	}

	// Counters: Baseline work partitions exactly, so the summed fleet
	// counters equal the single monitor's despite the restart (recovery
	// restores the counters the lost incarnation had accumulated).
	rs, ms := rt.Stats(), ref.Stats()
	if rs.Comparisons != ms.Comparisons || rs.Delivered != ms.Delivered || rs.Processed != ms.Processed {
		t.Fatalf("merged stats diverge after restart: router %+v, reference %+v", rs, ms)
	}

	// The proxied SSE stream carries exactly the reference's deltas, in
	// order.
	deadline := time.After(10 * time.Second)
	for i := 0; ; i++ {
		var want paretomon.FrontierDelta
		select {
		case want = <-refDeltas:
		default:
			// Reference drained: the router stream must have no extras.
			select {
			case extra := <-gotDeltas:
				t.Fatalf("router SSE delivered extra delta %+v", extra)
			case <-time.After(200 * time.Millisecond):
			}
			if i == 0 {
				t.Fatal("observed user saw no deltas — degenerate workload")
			}
			return
		}
		select {
		case got := <-gotDeltas:
			if got.Object != want.Object || !reflect.DeepEqual(normalize(got.Entered), normalize(want.Entered)) ||
				!reflect.DeepEqual(normalize(got.Left), normalize(want.Left)) {
				t.Fatalf("delta %d: router %+v, reference %+v", i, got, want)
			}
		case <-deadline:
			t.Fatalf("router SSE stalled at delta %d", i)
		}
	}
}

func normalize(xs []string) []string {
	if len(xs) == 0 {
		return []string{}
	}
	return xs
}

// statsPayload decodes GET /stats — the monitor's counters (Go field
// names; paretomon.Stats has no JSON tags) plus, on a router, the
// per-partition section.
type statsPayload struct {
	paretomon.Stats
	Partitions []struct {
		Partition int             `json:"partition"`
		Ready     bool            `json:"ready"`
		Stats     paretomon.Stats `json:"stats"`
	} `json:"partitions"`
}

func getStats(t *testing.T, url string) statsPayload {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPartitionMergedStatsProperty: under randomized lifecycle
// workloads, over fleets of 1 to 4 partitions, the router's /stats must
// equal the single monitor's —
// work counters summed across partitions, Processed the maximum,
// Workers the fleet total — with every partition's own workers and
// shards reported in the partitions section.
func TestPartitionMergedStatsProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, nParts := range []int{1, 2, 3, 4} {
				t.Run(fmt.Sprintf("parts%d", nParts), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					com := partitionCommunity(t, 24)
					opts := []paretomon.Option{
						paretomon.WithAlgorithm(paretomon.AlgorithmBaseline),
						paretomon.WithWorkers(2),
					}
					ref, err := paretomon.NewMonitor(com, opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer ref.Close()
					singleSrv := httptest.NewServer(server.New(ref))
					defer singleSrv.Close()

					plan, err := partition.NewPlan(nParts, 0)
					if err != nil {
						t.Fatal(err)
					}
					urls := make([]string, nParts)
					for i := 0; i < nParts; i++ {
						sub := com.Subset(func(name string) bool { return plan.Owner(name) == i })
						mon, err := paretomon.NewMonitor(sub, opts...)
						if err != nil {
							t.Fatal(err)
						}
						defer mon.Close()
						hs := httptest.NewServer(server.New(mon))
						defer hs.Close()
						urls[i] = hs.URL
					}
					rt, err := partition.New(partition.Config{URLs: urls, RetryBudget: 5 * time.Second})
					if err != nil {
						t.Fatal(err)
					}
					front := httptest.NewServer(server.NewRouter(rt))
					defer front.Close()

					// Generate one op sequence, apply it to both drivers. Ops
					// are kept valid so both sides take identical paths.
					type op func(d paretomon.Driver) error
					var ops []op
					nextObj, nextUser := 1, 24
					var alive []string
					users := append([]string(nil), com.Users()...)
					for i := 0; i < 60; i++ {
						switch k := rng.Intn(10); {
						case k < 5: // ingest a batch
							n := 1 + rng.Intn(8)
							batch := make([]paretomon.Object, n)
							for j := range batch {
								row := make([]string, len(partitionAttrs))
								for d := range row {
									row[d] = partitionVals[rng.Intn(len(partitionVals))]
								}
								batch[j] = paretomon.Object{Name: fmt.Sprintf("o%d", nextObj), Values: row}
								alive = append(alive, batch[j].Name)
								nextObj++
							}
							ops = append(ops, func(d paretomon.Driver) error { _, err := d.AddBatch(batch); return err })
						case k < 6: // join
							name := fmt.Sprintf("u%d", nextUser)
							nextUser++
							users = append(users, name)
							prefs := []paretomon.Preference{{Attr: "a", Better: "v1", Worse: "v3"}}
							ops = append(ops, func(d paretomon.Driver) error { return d.AddUser(name, prefs) })
						case k < 8: // assert + retract a preference
							u := users[rng.Intn(len(users))]
							attr := partitionAttrs[rng.Intn(len(partitionAttrs))]
							better := partitionVals[rng.Intn(len(partitionVals))]
							worse := partitionVals[rng.Intn(len(partitionVals))]
							ops = append(ops, func(d paretomon.Driver) error {
								if err := d.AddPreference(u, attr, better, worse); err != nil {
									return nil // cycle/reflexive: rejected identically on both sides
								}
								return d.RetractPreference(u, attr, better, worse)
							})
						case k < 9 && len(alive) > 0: // takedown
							name := alive[rng.Intn(len(alive))]
							ops = append(ops, func(d paretomon.Driver) error {
								err := d.RemoveObject(name)
								if err != nil && strings.Contains(err.Error(), "unknown object") {
									return nil // already removed by an earlier op
								}
								return err
							})
						default: // no-op round
						}
					}
					for _, d := range []paretomon.Driver{ref, paretomon.Driver(rt)} {
						for i, apply := range ops {
							if err := apply(d); err != nil {
								t.Fatalf("op %d on %T: %v", i, d, err)
							}
						}
					}

					single := getStats(t, singleSrv.URL)
					merged := getStats(t, front.URL)
					if merged.Comparisons != single.Comparisons ||
						merged.VerifyComparisons != single.VerifyComparisons ||
						merged.Delivered != single.Delivered ||
						merged.Processed != single.Processed {
						t.Fatalf("merged /stats diverge:\nrouter: %+v\nsingle: %+v", merged.Stats, single.Stats)
					}
					if len(merged.Partitions) != nParts {
						t.Fatalf("partitions section has %d entries, want %d", len(merged.Partitions), nParts)
					}
					workers, processedMax := 0, uint64(0)
					for _, ps := range merged.Partitions {
						if !ps.Ready {
							t.Fatalf("partition %d not ready in /stats", ps.Partition)
						}
						if ps.Stats.Workers < 1 {
							t.Fatalf("partition %d reports no workers", ps.Partition)
						}
						if ps.Stats.Workers > 1 && len(ps.Stats.Shards) == 0 {
							t.Fatalf("partition %d reports %d workers but no shard breakdown", ps.Partition, ps.Stats.Workers)
						}
						workers += ps.Stats.Workers
						if ps.Stats.Processed > processedMax {
							processedMax = ps.Stats.Processed
						}
					}
					if merged.Workers != workers {
						t.Fatalf("merged Workers = %d, want fleet total %d", merged.Workers, workers)
					}
					if merged.Processed != processedMax {
						t.Fatalf("merged Processed = %d, want per-partition max %d", merged.Processed, processedMax)
					}
				})
			}
		})
	}
}
