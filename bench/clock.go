package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"
)

// The calibrated clock. Wall-clock time on the 2-core shared VM this
// benchmark is gated on does not repeat within a tenth, so every timed
// window of system work is followed by one slice of a fixed,
// benchmark-owned reference operation, and the window's time is expressed
// in units of the slices around it. Multiplying by the slice's frozen
// nominal duration turns the ratio back into microseconds "as this box
// runs on a median day". README.md has the evidence.
//
// The nominal constants below were measured once on the reference box
// (median slice duration, see README.md) and are frozen: changing one
// rescales every calibrated metric of the workloads using it.
const (
	refComputeNominalUS = 3800.0 // refCompute slice after a window of system work
	refComputeHotUS     = 2850.0 // refCompute slice after another slice (set-up brackets)
	refEcho1NominalUS   = 2400.0 // refEcho slice, 1-object body (single_wal)
	refEcho16NominalUS  = 2750.0 // refEcho slice, 16-object body (routed_2p)

	// refSmooth is how many slices either side of a window's own are
	// pooled (by median) into its local clock rate, so that one stalled
	// slice does not rescale its window.
	refSmooth = 2
)

// refOp is a reference operation: slice runs one fixed unit of it and
// returns how long it took.
type refOp interface {
	slice() time.Duration
	nominalUS() float64
	close()
}

// refCompute is two xorshift walks over byte tables, each load's address
// depending on the one before: the character of a dominance test reading
// id-indexed closure tables and chasing frontier objects. One walk stays
// in a 256 KiB table (L2), the other roams 4 MiB (the L3 this VM shares
// with its neighbours); the in-process workloads' working set of 3-4 MB
// straddles the two, and so does what slows them. The walks take about
// half the slice each. It calls no repo code and allocates nothing per
// slice.
type refCompute struct {
	small, big []byte
	state      uint64
	sink       uint64
}

const (
	refSmallTable = 256 << 10
	refSmallSteps = 200 << 10
	refBigTable   = 4 << 20
	refBigSteps   = 20 << 10
)

func newRefCompute() *refCompute {
	r := &refCompute{small: make([]byte, refSmallTable), big: make([]byte, refBigTable), state: 0x9E3779B97F4A7C15}
	x := uint64(88172645463325252)
	for _, table := range [][]byte{r.small, r.big} {
		for i := range table {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[i] = byte(x)
		}
	}
	return r
}

func (r *refCompute) slice() time.Duration {
	x, sum := r.state, r.sink
	// Untimed: pull the tables back into cache, so a slice that follows a
	// window of system work measures the same thing as one that follows
	// another slice.
	for _, table := range [][]byte{r.big, r.small} {
		for i := 0; i < len(table); i += 64 {
			sum += uint64(table[i])
		}
	}
	t0 := time.Now()
	for i := 0; i < refSmallSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += uint64(r.small[x&(refSmallTable-1)])
		sum += x
	}
	for i := 0; i < refBigSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += uint64(r.big[x&(refBigTable-1)])
		sum += x
	}
	r.state, r.sink = x, sum
	return time.Since(t0)
}

func (r *refCompute) nominalUS() float64 { return refComputeNominalUS }
func (r *refCompute) close()             {}

// refEcho is a keep-alive loopback round trip to a handler this package
// owns: it JSON-decodes a body shaped like the workload's request and
// re-encodes it. One slice is a fixed number of round trips.
type refEcho struct {
	srv     *httptest.Server
	client  *http.Client
	body    []byte
	trips   int
	nominal float64
}

// echoBody is the wire shape of POST /objects/batch (and, with one
// element, near enough that of POST /objects).
type echoBody struct {
	Objects []echoObject `json:"objects"`
}

type echoObject struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

func newRefEcho(objectsPerRequest, trips int, nominal float64) (*refEcho, error) {
	body := echoBody{}
	for i := 0; i < objectsPerRequest; i++ {
		body.Objects = append(body.Objects, echoObject{
			Name:   fmt.Sprintf("o%06d", i),
			Values: []string{"actor12", "director7", "genre3", "writer21"},
		})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b echoBody
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(b) // a failed write surfaces client-side
	}))
	e := &refEcho{
		srv:     srv,
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		body:    raw,
		trips:   trips,
		nominal: nominal,
	}
	return e, nil
}

func (e *refEcho) slice() time.Duration {
	t0 := time.Now()
	for i := 0; i < e.trips; i++ {
		resp, err := e.client.Post(e.srv.URL, "application/json", bytes.NewReader(e.body))
		if err != nil {
			// The loopback echo cannot fail short of the process running
			// out of sockets; a zero slice poisons its window visibly.
			return 0
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return time.Since(t0)
}

func (e *refEcho) nominalUS() float64 { return e.nominal }

func (e *refEcho) close() {
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// Window accumulators. accSys is the time inside the system's outermost
// call; the others are filled only on a traced run, by the wrappers in
// trace.go.
const (
	accSys       = iota
	accAddBatch  // in-process AddBatch alone, without the consumer's drain
	accHandle    // server.handle, summed over partitions
	accHandleMax // slowest partition's handler per request
	accHandleMin // fastest partition's handler per request
	accAppend    // storage.append
	accFrontier  // Frontier + TargetsOf reads
	accUpdate    // AddPreference / RetractPreference
	accRemove    // RemoveObject
	// The twins' layers, replayed side by side in one pass (trace.go).
	accTwinEngine
	accTwinBare
	accTwinPub
	nAcc
)

// timedWindow is one timed window and the reference slice that closed it.
// Windows hold a fixed number of requests, so window i covers the same
// objects on every replay of a stream.
type timedWindow struct {
	acc      [nAcc]time.Duration
	n        [nAcc]int // operations behind each accumulator
	objs     int
	requests int
	ref      time.Duration
	rate     float64 // local clock rate: median of the slices around, in ns
}

// sample is one delivery latency and the window it fell in.
type sample struct {
	raw time.Duration
	win int32
}

// timeline is what driving a system through its timed requests produced.
type timeline struct {
	windows  []timedWindow
	lat      []sample // delivery latencies
	lag      []sample // SSE arrival minus POST reply (single_wal)
	objs     int
	requests int
	wall     time.Duration
	sys      time.Duration
	refTime  time.Duration
	mallocs  uint64 // runtime.MemStats deltas, reference slices excluded
	bytes    uint64
	nominal  float64
}

// setRates fills each window's local clock rate.
func (t *timeline) setRates() {
	for i := range t.windows {
		lo, hi := max(0, i-refSmooth), min(len(t.windows), i+refSmooth+1)
		near := make([]float64, 0, hi-lo)
		for _, w := range t.windows[lo:hi] {
			near = append(near, float64(w.ref))
		}
		t.windows[i].rate = median(near)
	}
}

// costUS is the calibrated microseconds of acc per object over replays of
// one stream: each window's time in units of its local clock rate, the
// least of that across the replays (interference only ever adds time, and
// it hits one replay's window, not all), summed over the stream and
// scaled by the nominal slice. Summing, not taking a median over windows,
// matters: what a window costs depends on the objects in it.
func costUS(acc int, replays ...*timeline) float64 {
	first := replays[0]
	var sum float64
	for i := range first.windows {
		best := math.Inf(1)
		for _, t := range replays {
			best = min(best, float64(t.windows[i].acc[acc])/t.windows[i].rate)
		}
		sum += best
	}
	return sum * first.nominal / float64(first.objs)
}

// share is the median over windows of a's accA over b's accB, each in
// units of its window's local clock rate. a and b are replays of one
// stream (or the same replay), so window i covers the same objects in
// both: what the objects cost cancels, and the median sheds the windows a
// stall hit on either side.
func share(a *timeline, accA int, b *timeline, accB int) float64 {
	rs := make([]float64, 0, len(b.windows))
	for i, wb := range b.windows {
		if wb.acc[accB] > 0 {
			wa := a.windows[i]
			rs = append(rs, float64(wa.acc[accA])/wa.rate/(float64(wb.acc[accB])/wb.rate)*a.nominal/b.nominal)
		}
	}
	return median(rs)
}

// perOpUS is the calibrated mean microseconds per operation behind acc.
func (t *timeline) perOpUS(acc int) float64 {
	if n := t.count(acc); n > 0 {
		return costUS(acc, t) * float64(t.objs) / float64(n)
	}
	return 0
}

func (t *timeline) count(acc int) int {
	n := 0
	for _, w := range t.windows {
		n += w.n[acc]
	}
	return n
}

// objsPerRequest is the stream's constant batch size.
func (t *timeline) objsPerRequest() float64 {
	return float64(t.objs) / float64(t.requests)
}

// calibratedMS scales each sample by its window's local clock rate and
// returns milliseconds, sorted. Given replays of one stream it first
// takes each delivery's least latency across them, as costUS does with
// windows: delivery j is the same delivery in every replay.
func calibratedMS(pick func(*timeline) []sample, replays ...*timeline) []float64 {
	n := len(pick(replays[0]))
	for _, t := range replays {
		n = min(n, len(pick(t))) // unequal only on a run that fails anyway
	}
	out := make([]float64, n)
	for j := range out {
		out[j] = math.Inf(1)
		for _, t := range replays {
			s := pick(t)[j]
			out[j] = min(out[j], float64(s.raw)/t.windows[s.win].rate*t.nominal/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func latencies(t *timeline) []sample { return t.lat }
func lags(t *timeline) []sample      { return t.lag }

func rawMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.raw) / 1e6
	}
	sort.Float64s(out)
	return out
}

// refSlices returns the reference slice durations in microseconds, sorted.
func (t *timeline) refSlices() []float64 {
	ds := make([]float64, 0, len(t.windows))
	for _, w := range t.windows {
		ds = append(ds, float64(w.ref)/1e3)
	}
	sort.Float64s(ds)
	return ds
}

// clockSpread is p90/p10 of the reference slice durations: how rough the
// machine was during the run.
func (t *timeline) clockSpread() float64 {
	ds := t.refSlices()
	return quantile(ds, 0.9) / quantile(ds, 0.1)
}

// bracket runs reference slices for at least d and returns their
// durations.
func bracket(ref refOp, d time.Duration) []float64 {
	var out []float64
	for t0 := time.Now(); time.Since(t0) < d; {
		out = append(out, float64(ref.slice()))
	}
	return out
}

// calibratedSeconds times fn between two brackets of reference slices
// and returns its duration on the calibrated clock, plus the raw one.
// Bracket slices run back to back, which the compute walk does a fifth
// faster than when it follows system work; hence their own nominal.
func calibratedSeconds(ref *refCompute, before []float64, fn func() error) (cal, raw float64, after []float64, err error) {
	t0 := time.Now()
	err = fn()
	d := time.Since(t0)
	after = bracket(ref, 100*time.Millisecond)
	both := append(append([]float64(nil), before...), after...)
	sort.Float64s(both)
	return d.Seconds() * refComputeHotUS * 1e3 / median(both), d.Seconds(), after, err
}

// median sorts a copy when handed unsorted values.
func median(vs []float64) float64 {
	if !sort.Float64sAreSorted(vs) {
		vs = append([]float64(nil), vs...)
		sort.Float64s(vs)
	}
	return quantile(vs, 0.5)
}

// quantile interpolates linearly on a sorted slice; 0 on an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// memCounters reads the allocation counters.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// liveHeapMB forces two collections and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
