// Command bench is the repository's benchmark: four seeded workloads
// replayed through the public entry points (paretomon.NewMonitor and Open,
// server.New, partition.New), timed on a calibrated clock, checked against
// a definitional oracle. See README.md and ../BENCHMARK.json.
//
//	bash bench/run.sh --workload batch_ftv --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh                       # all four, end-to-end metrics
//	bash bench/run.sh --trace 1             # all four, per-layer metrics and span files
//	bash bench/run.sh --repeat 10           # two interleaved sets of ten runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	paretomon "repro"
)

// defaultSeed is the pinned stream seed of a run given none.
const defaultSeed = 20180326

type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    int
	spans    string
	workdir  string
	repeat   int
}

// metric is one reported value; result is the last line of a run's
// standard output, in the shape the benchmark contract fixes.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: batch_ftv, single_wal, window_mix or routed_2p (default: all four in turn)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "stream seed: picks which catalogue objects arrive, and in what order")
	flag.Float64Var(&o.seconds, "seconds", 12, "nominal length of the timed phase; fixes the stream length")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies the stream length; below 0.1 also shrinks the community (smoke runs)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes a span file")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default <workdir>/spans-<workload>.json)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for WAL data and span files")
	flag.IntVar(&o.repeat, "repeat", 0, "run two interleaved sets of n runs per workload and compare them against BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 || o.scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Two processors at most: the reference box has two, and the numbers
	// must not depend on how many a bigger host happens to offer.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if o.repeat > 0 {
		os.Exit(repeat(o))
	}
	todo := specs
	if o.workload != "" {
		sp := findSpec(o.workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		todo = []*spec{sp}
	}
	ok := true
	for _, sp := range todo {
		res, err := run(sp, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct && res.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload and prints its report; the result it returns
// is printed by the caller as the last line.
func run(sp *spec, o options) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	users := sp.users
	if o.scale < 0.1 {
		users = max(16, users/4) // smoke scale: clustering is quadratic in users
	}
	// The untraced run replays the stream once per trial, so each replay
	// gets its share of -seconds; the traced run's five replays (untraced,
	// traced, three twins) get half of that each.
	timed := int(math.Round(sp.objPerSec * o.seconds * o.scale / float64(sp.batch) / trials))
	if o.trace == 1 {
		timed /= 2
	}
	timed = max(timed, 4)
	in, err := buildInputs(sp, users, o.seed, timed)
	if err != nil {
		return nil, err
	}
	rep := &report{sp: sp, o: o, in: in}
	if o.trace == 1 {
		err = runTraced(rep)
	} else {
		err = runUntraced(rep)
	}
	if err != nil {
		return nil, err
	}
	rep.print()
	return rep.result(), nil
}

// report gathers a run's numbers for printing.
type report struct {
	sp *spec
	o  options
	in *inputs

	names   []string // metric names in report order
	metrics map[string]metric
	notes   map[string]float64 // unbounded extras printed for the reader, not part of the result

	refMedianUS float64
	setupRefUS  float64
	digest      uint64
	clusters    int
	checked     int
	wrong       int
	attempted   int
	failed      int
	failures    []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64) {
	if r.notes == nil {
		r.notes = map[string]float64{}
	}
	r.notes[name] = v
}

func (r *report) result() *result {
	return &result{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// print writes the environment record and every metric by name and unit.
func (r *report) print() {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	env := map[string]any{
		"workload": r.sp.name, "why": r.sp.why, "trace": r.o.trace,
		"seed": r.o.seed, "seconds": r.o.seconds, "scale": r.o.scale,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "kernel": strings.TrimSpace(string(kernel)),
		"users": len(r.in.profiles), "clusters": r.clusters, "batch": r.sp.batch,
		"warmup_objects": r.in.warm * r.sp.batch, "timed_objects": (r.in.reqs - r.in.warm) * r.sp.batch,
		"ref_compute_nominal_us": refComputeNominalUS, "ref_compute_hot_us": refComputeHotUS, "ref_echo1_nominal_us": refEcho1NominalUS,
		"ref_echo16_nominal_us": refEcho16NominalUS,
		"ref_median_us":         r.refMedianUS, "setup_ref_median_us": r.setupRefUS,
		"delivery_digest": fmt.Sprintf("%016x", r.digest),
		"oracle_checked":  r.checked, "oracle_wrong": r.wrong,
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Printf("%s\n", line)
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Printf("%-12s %-34s %16.6f %s\n", r.sp.name, name, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(r.notes))
	for name := range r.notes {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	for _, name := range notes {
		fmt.Printf("%-12s %-34s %16.6f (not gated)\n", r.sp.name, name, r.notes[name])
	}
	for _, f := range r.failures {
		fmt.Printf("%-12s FAILED: %s\n", r.sp.name, f)
	}
}

// newRef returns the workload's reference operation.
func newRef(sp *spec) (refOp, error) {
	if sp.echoTrips > 0 {
		return newRefEcho(sp.batch, sp.echoTrips, sp.echoNominal)
	}
	return newRefCompute(), nil
}

// phase is one system driven through warm-up and a timed range.
type phase struct {
	tl       *timeline
	rec      *recorder
	before   paretomon.Stats // after warm-up
	after    paretomon.Stats
	clusters int
}

// drive warms sys up, then replays the timed requests in windows of
// sp.windowReqs requests, each closed by one reference slice.
func drive(sys system, in *inputs, ref refOp, tr *tracer, spanName string) (*phase, error) {
	rec := newRecorder(in)
	step := func(i int) (time.Duration, error) {
		rec.attempted++
		sp := tr.begin(spanName, i)
		d, err := sys.step(i, rec)
		tr.end(sp)
		if err != nil {
			rec.fail("request %d: %v", i, err)
			if rec.failed > 100 {
				return 0, fmt.Errorf("giving up after %d failed operations, last: %w", rec.failed, err)
			}
		}
		return d, nil
	}
	for i := 0; i < in.warm; i++ {
		if _, err := step(i); err != nil {
			return nil, err
		}
	}
	if err := sys.warmed(rec); err != nil {
		return nil, err
	}
	tr.drain(&timedWindow{}) // discard what warm-up accumulated
	ph := &phase{rec: rec, before: sys.stats()}
	tl := &timeline{nominal: ref.nominalUS()}
	_, allocates := ref.(*refEcho)
	var refMallocs, refBytes uint64
	var cur timedWindow
	closeWindow := func() {
		tr.drain(&cur)
		if allocates {
			m0, b0 := memCounters()
			cur.ref = ref.slice()
			m1, b1 := memCounters()
			refMallocs, refBytes = refMallocs+m1-m0, refBytes+b1-b0
		} else {
			cur.ref = ref.slice()
		}
		tl.refTime += cur.ref
		tl.windows = append(tl.windows, cur)
		cur = timedWindow{}
	}
	rec.timing = true
	m0, b0 := memCounters()
	start := time.Now()
	for i := in.warm; i < in.reqs; i++ {
		rec.win = int32(len(tl.windows))
		d, err := step(i)
		if err != nil {
			return nil, err
		}
		cur.acc[accSys] += d
		cur.objs += in.sp.batch
		cur.requests++
		tl.sys += d
		if cur.requests == in.sp.windowReqs {
			closeWindow()
		}
	}
	if cur.requests > 0 {
		closeWindow()
	}
	tl.wall = time.Since(start)
	m1, b1 := memCounters()
	tl.mallocs, tl.bytes = m1-m0-refMallocs, b1-b0-refBytes
	tl.requests = in.reqs - in.warm
	tl.objs = tl.requests * in.sp.batch
	tl.setRates()
	rec.timing = false
	if err := sys.finish(rec); err != nil {
		return nil, err
	}
	tl.lat, tl.lag = rec.lat, rec.lag
	ph.tl, ph.after, ph.clusters = tl, sys.stats(), sys.clusters()
	return ph, nil
}

// verify runs the correctness checks of a finished phase into the report.
func (r *report) verify(ph *phase) {
	rec, in := ph.rec, r.in
	r.count(rec)
	r.digest, r.clusters = rec.hash, ph.clusters
	n := uint64(in.reqs * in.sp.batch)
	if ph.after.Processed != n {
		r.fail("Processed = %d, the stream has %d objects", ph.after.Processed, n)
	}
	if d := ph.after.DroppedDeliveries; d > 0 {
		r.failed += int(d)
		r.fail("%d deliveries dropped by a full subscriber channel", d)
	}
	var first string
	r.checked, r.wrong, first = checkDeliveries(in, rec)
	if r.wrong > 0 {
		r.fail("oracle: %d of %d checked deliveries wrong, first: %s", r.wrong, r.checked, first)
	}
}

// count adds a replay's operations to the report's totals.
func (r *report) count(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	r.failures = append(r.failures, rec.failures...)
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// trials is how many times an untraced run builds the system and
// replays the stream. Set-up is the median of the builds; every window of
// the stream is timed once per trial and enters the cost by its least.
const trials = 3

// runUntraced measures the end-to-end metrics.
func runUntraced(r *report) error {
	in, sp := r.in, r.sp
	env := &runEnv{workdir: r.o.workdir}
	compute := newRefCompute()
	ref, err := newRef(sp)
	if err != nil {
		return err
	}
	defer ref.close()
	baseHeap := liveHeapMB()

	n := trials
	if r.o.scale < 0.1 {
		n = 1
	}
	var (
		sys                      system
		last                     *phase
		tls                      []*timeline
		setups, setupsRaw        []float64
		slices, mallocs, bytes   []float64
		rawCapacity, comparisons []float64
	)
	// Set-up is generated inputs to a ready system, bracketed by
	// reference slices on both sides.
	before := bracket(compute, 100*time.Millisecond)
	for t := 0; t < n; t++ {
		cal, raw, after, err := calibratedSeconds(compute, before, func() (err error) {
			sys, err = sp.build(in, env)
			return err
		})
		if err != nil {
			return err
		}
		setups, setupsRaw = append(setups, cal), append(setupsRaw, raw)
		slices = append(append(slices, before...), after...)

		if last, err = drive(sys, in, ref, nil, ""); err != nil {
			return err
		}
		tl := last.tl
		tls = append(tls, tl)
		objs := float64(tl.objs)
		mallocs, bytes = append(mallocs, float64(tl.mallocs)/objs), append(bytes, float64(tl.bytes)/objs)
		rawCapacity = append(rawCapacity, objs/tl.sys.Seconds())
		comparisons = append(comparisons, float64(last.after.Comparisons-last.before.Comparisons)/objs)
		if t == 0 {
			r.digest = last.rec.hash
		} else if last.rec.hash != r.digest || comparisons[t] != comparisons[0] {
			r.fail("trial %d is not a replay of trial 0: digest %016x vs %016x, %v vs %v comparisons per object",
				t, last.rec.hash, r.digest, comparisons[t], comparisons[0])
		}
		if t < n-1 {
			r.count(last.rec)
			if err := sys.close(); err != nil {
				return err
			}
			sys = nil
			before = bracket(compute, 100*time.Millisecond)
		}
	}
	heap := liveHeapMB() - baseHeap
	r.verify(last)
	if err := sys.close(); err != nil {
		return err
	}

	lat := calibratedMS(latencies, tls...)
	var windows int
	var refs, rawLat []float64
	for _, tl := range tls {
		windows += len(tl.windows)
		refs = append(refs, tl.refSlices()...)
		rawLat = append(rawLat, rawMS(tl.lat)...)
	}
	sort.Float64s(refs)
	r.refMedianUS, r.setupRefUS = median(refs), median(slices)/1e3
	r.set("setup_s", median(setups), "s")
	r.set("capacity_obj_s", 1e6/costUS(accSys, tls...), "obj/s")
	r.set("delivery_p50_ms", quantile(lat, 0.5), "ms")
	r.set("comparisons_per_obj", comparisons[0], "count")
	r.set("allocs_per_obj", median(mallocs), "count")
	r.set("alloc_bytes_per_obj", median(bytes), "B")
	r.set("live_heap_mb", heap, "MB")

	tl := last.tl
	r.note("bench.raw_setup_s", median(setupsRaw))
	r.note("bench.raw_capacity_obj_s", median(rawCapacity))
	r.note("bench.raw_delivery_p50_ms", median(rawLat))
	r.note("bench.delivery_p99_ms", quantile(lat, 0.99))
	r.note("bench.samples", float64(len(lat)))
	r.note("bench.windows", float64(windows))
	r.note("bench.clock_spread", quantile(refs, 0.9)/quantile(refs, 0.1))
	r.note("bench.timed_wall_s", tl.wall.Seconds())
	r.note("bench.generator_share", float64(tl.wall-tl.sys-tl.refTime)/float64(tl.wall))
	return nil
}

// spansPath is where a traced run writes its spans.
func (o options) spansPath(sp *spec) string {
	if o.spans != "" {
		return o.spans
	}
	return filepath.Join(o.workdir, "spans-"+sp.name+".json")
}
