package experiments

import (
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
)

// The parallel sweep is an engineering benchmark beyond the paper: it
// replays the Fig. 4 workload (movie dataset, append-only) through the
// exact and approximate filter-then-verify engines at increasing worker
// counts and records ingest throughput, so every PR has a perf
// trajectory to compare against. Deliveries of every parallel run are
// checked against the sequential run object by object — a sweep that
// bought speed by diverging would be worthless.

// ParallelRun is one engine × mode × worker-count measurement.
type ParallelRun struct {
	Engine string `json:"engine"`
	// Mode is "sequential" (the single-threaded engine, the baseline both
	// parallel modes' speedups divide by), "stream" (one Process per
	// object, one fan-out/fan-in per object), or "batch" (ProcessBatch
	// over 512-object chunks, one synchronization per chunk — the
	// AddBatch fast path).
	Mode string `json:"mode"`
	// Workers is the requested worker count; Shards is the effective
	// fan-out after clamping to Clusters, this engine's shardable-unit
	// count (the exact and approximate engines cluster differently).
	Workers       int     `json:"workers"`
	Shards        int     `json:"shards"`
	Clusters      int     `json:"clusters"`
	Millis        float64 `json:"millis"`
	ObjectsPerSec float64 `json:"objects_per_sec"`
	Comparisons   uint64  `json:"comparisons"`
	// SpeedupVsSequential is sequential wall time over this run's wall
	// time (1.0 for the sequential run itself).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// IdenticalDeliveries reports whether every object's target-user set
	// matched the sequential engine's, in stream order.
	IdenticalDeliveries bool `json:"identical_deliveries"`
	// AllocsPerOp / BytesPerOp are heap allocations and bytes per ingested
	// object (runtime.MemStats deltas over the replay), so the sweep
	// catches allocation regressions the same way it catches slowdowns.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ParallelBench is the BENCH_parallel.json document.
type ParallelBench struct {
	Workload   string        `json:"workload"`
	Dataset    string        `json:"dataset"`
	Objects    int           `json:"objects"`
	Users      int           `json:"users"`
	Dims       int           `json:"dims"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Runs       []ParallelRun `json:"runs"`
}

// Parallel runs the worker sweep. Options.Workers selects the parallel
// worker counts (default 2, 4, 8; entries <= 1 are ignored — the
// sequential baseline always runs once per engine and both modes'
// speedups divide by it); Options.BenchOut, when non-empty, also writes
// the sweep as JSON to that path.
func Parallel(o Options) []*Report {
	o = o.withDefaults()
	workers := o.Workers
	if len(workers) == 0 {
		workers = []int{2, 4, 8}
	}
	ds := o.dataset("movie")
	pu := projectUsers(ds.Users, o.Dims)
	n := len(ds.Objects)

	bench := &ParallelBench{
		Workload:   "fig4",
		Dataset:    "movie",
		Objects:    n,
		Users:      len(pu),
		Dims:       o.Dims,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	rep := &Report{
		ID: "parallel",
		Title: fmt.Sprintf("ingest throughput of sharded engines, movie (Fig. 4 workload), |O|=%d, |C|=%d, d=%d, GOMAXPROCS=%d",
			n, len(pu), o.Dims, bench.GOMAXPROCS),
		Columns: []string{"engine", "mode", "workers", "shards", "ms", "objects/sec", "speedup", "identical", "allocs/op"},
	}

	// Materialize the stream once; every run replays the same objects.
	objs := make([]object.Object, 0, n)
	str := object.NewStream(ds.Objects, n, o.Dims)
	for {
		obj, ok := str.Next()
		if !ok {
			break
		}
		objs = append(objs, obj)
	}

	// The approximate engine is built through its own constructors: it
	// keeps one frontier member per object, not per tuple class.
	kinds := []struct {
		name       string
		clusters   []core.Cluster
		sequential func([]*pref.Profile, []core.Cluster, *stats.Counters) *core.FilterThenVerify
		sharded    func([]*pref.Profile, []core.Cluster, []bool, iter.Seq[object.Object], int, *stats.Counters) (*core.Sharded, error)
	}{
		{"FilterThenVerify", exactClusters(pu, mapH("movie", false, o.H, o.Dims)),
			core.NewFilterThenVerify, core.NewSharded},
		{"FilterThenVerifyApprox", approxClusters(pu, mapH("movie", true, o.H, o.Dims), o.Theta1, o.Theta2),
			core.NewFilterThenVerifyPerObject, core.NewShardedPerObject},
	}
	const batchSize = 512
	// measure replays the stream three times through fresh engines from
	// build (frontiers are stateful) and keeps the fastest wall time,
	// damping scheduler noise. feed drives one replay and returns the
	// per-object deliveries.
	measure := func(build func(ctr *stats.Counters) engine, feed func(eng engine, out [][]int) [][]int) ([][]int, float64, uint64, float64, float64) {
		var deliveries [][]int
		var millis, allocsOp, bytesOp float64
		var comparisons uint64
		for replay := 0; replay < 3; replay++ {
			ctr := &stats.Counters{}
			eng := build(ctr)
			out := make([][]int, 0, n)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			deliveries = feed(eng, out)
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			runtime.ReadMemStats(&m1)
			if replay == 0 || ms < millis {
				millis = ms
			}
			// Keep the per-replay minimum, like wall time: GC noise and
			// lazily built caches only ever inflate a replay.
			ao := float64(m1.Mallocs-m0.Mallocs) / float64(n)
			bo := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
			if replay == 0 || ao < allocsOp {
				allocsOp = ao
			}
			if replay == 0 || bo < bytesOp {
				bytesOp = bo
			}
			// Sharded engines fold per-shard counters in via Totals; the
			// public counter only carries Processed.
			comparisons = ctr.Comparisons
			if tot, ok := eng.(interface{ Totals() stats.Counters }); ok {
				comparisons = tot.Totals().Comparisons
			}
		}
		return deliveries, millis, comparisons, allocsOp, bytesOp
	}
	stream := func(eng engine, out [][]int) [][]int {
		for _, obj := range objs {
			out = append(out, eng.Process(obj))
		}
		return out
	}
	batch := func(eng engine, out [][]int) [][]int {
		be := eng.(*core.Sharded)
		for lo := 0; lo < n; lo += batchSize {
			hi := min(lo+batchSize, n)
			// ProcessBatch reuses its outer slice; the append copies it out.
			out = append(out, be.ProcessBatch(objs[lo:hi])...)
		}
		return out
	}

	for _, k := range kinds {
		k := k
		record := func(mode string, w, shards int, deliveries [][]int, millis float64, cmp uint64, allocsOp, bytesOp float64, base [][]int, baseMillis float64) {
			run := ParallelRun{
				Engine:              k.name,
				Mode:                mode,
				Workers:             w,
				Shards:              shards,
				Clusters:            len(k.clusters),
				Millis:              millis,
				ObjectsPerSec:       float64(n) / (millis / 1000.0),
				Comparisons:         cmp,
				SpeedupVsSequential: baseMillis / millis,
				IdenticalDeliveries: base == nil || reflect.DeepEqual(deliveries, base),
				AllocsPerOp:         allocsOp,
				BytesPerOp:          bytesOp,
			}
			bench.Runs = append(bench.Runs, run)
			rep.Rows = append(rep.Rows, []string{
				run.Engine, run.Mode, fmtInt(run.Workers), fmtInt(run.Shards), fmtMS(run.Millis),
				fmt.Sprintf("%.0f", run.ObjectsPerSec), fmt.Sprintf("%.2fx", run.SpeedupVsSequential),
				fmt.Sprintf("%t", run.IdenticalDeliveries), fmt.Sprintf("%.1f", run.AllocsPerOp),
			})
		}
		// One sequential baseline per engine: both modes' speedups divide
		// by the same measurement (a sequential "batch" is the same
		// per-object loop, so measuring it separately would only re-sample
		// noise into the denominator).
		o.logf("parallel: %s sequential baseline ...", k.name)
		base, baseMillis, baseCmp, baseAllocs, baseBytes := measure(func(ctr *stats.Counters) engine {
			return k.sequential(pu, k.clusters, ctr)
		}, stream)
		record("sequential", 1, 1, base, baseMillis, baseCmp, baseAllocs, baseBytes, nil, baseMillis)

		for _, mode := range []string{"stream", "batch"} {
			feed := stream
			if mode == "batch" {
				feed = batch
			}
			for _, w := range workers {
				if w <= 1 {
					continue
				}
				var shards int
				deliveries, millis, cmp, allocsOp, bytesOp := measure(func(ctr *stats.Counters) engine {
					p, err := k.sharded(pu, k.clusters, nil, nil, w, ctr) // no lifecycle: no alive source
					if err != nil {
						panic(err) // the clusters were just built over pu
					}
					shards = p.Shards()
					return p
				}, feed)
				o.logf("parallel: %s/%s with %d workers (%d shards) done", k.name, mode, w, shards)
				record(mode, w, shards, deliveries, millis, cmp, allocsOp, bytesOp, base, baseMillis)
			}
		}
	}
	if o.BenchOut != "" {
		if err := WriteParallelBench(o.BenchOut, bench); err != nil {
			o.logf("parallel: writing %s: %v", o.BenchOut, err)
		}
	}
	return []*Report{rep}
}

// WriteParallelBench writes the sweep result as indented JSON.
func WriteParallelBench(path string, b *ParallelBench) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
