// Command benchdiff compares two BENCH_parallel.json documents and
// fails (exit 1) when the current run regresses against the committed
// baseline. It is the CI perf gate, and it gates only the signals that
// are deterministic on any machine —
//
//   - identical_deliveries: a sharded run whose deliveries diverged from
//     the sequential engine's is wrong, not slow.
//   - comparisons: the dominance-comparison count is deterministic for a
//     fixed workload; any increase is an algorithmic regression (a
//     filter that stopped pruning, a cluster split), never noise.
//   - allocs_per_op: heap allocations per ingested object are nearly
//     deterministic at a fixed GOMAXPROCS; growth beyond -max-allocs
//     means a hot path started allocating. Baselines recorded before
//     allocation tracking (allocs_per_op absent or zero) are not gated.
//   - a configuration present in the baseline but missing from the
//     current sweep.
//
// speedup_vs_sequential — each run's wall time relative to the sequential
// engine measured in the same process — is printed for the record and
// never fails the gate: on a small shared runner the ratio swings by more
// than any threshold worth setting, at a clean tree too. Timing claims go
// through the calibrated clock of bench/ (BENCHMARK.json).
//
// Runs are matched by (engine, mode, workers). The documents must all
// describe the same workload (objects, users, dims, gomaxprocs) or the
// comparison is meaningless and benchdiff refuses (exit 2).
//
// -current accepts a comma-separated list of documents from repeated
// sweeps; each configuration is judged by its best (lowest-comparisons,
// lowest-allocation) measurement across them, so one run that caught a
// GC cycle can't fail the gate, while a real regression — present in
// every repeat — still does.
//
// Usage:
//
//	benchdiff -baseline BENCH_parallel.json -current run1.json,run2.json,run3.json [-max-allocs 0.10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

type runKey struct {
	Engine  string
	Mode    string
	Workers int
}

func load(path string) (*experiments.ParallelBench, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc experiments.ParallelBench
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &doc, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_parallel.json", "committed baseline document")
	currentPaths := flag.String("current", "", "comma-separated freshly measured document(s); best run per config is gated")
	maxAllocs := flag.Float64("max-allocs", 0.10, "max allowed fractional growth in allocs_per_op (skipped when the baseline has no allocation data)")
	flag.Parse()
	if *currentPaths == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}

	// Fold the repeats into one best-of document: per configuration the
	// highest speedup and lowest comparison count seen across sweeps.
	best := make(map[runKey]experiments.ParallelRun)
	var order []runKey
	for _, path := range strings.Split(*currentPaths, ",") {
		doc, err := load(strings.TrimSpace(path))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
			os.Exit(2)
		}
		// Same workload or the numbers aren't comparable at all.
		if base.Objects != doc.Objects || base.Users != doc.Users ||
			base.Dims != doc.Dims || base.GOMAXPROCS != doc.GOMAXPROCS ||
			base.Workload != doc.Workload || base.Dataset != doc.Dataset {
			fmt.Fprintf(os.Stderr,
				"benchdiff: workload mismatch — baseline %s/%s %d objects × %d users × %d dims @ GOMAXPROCS=%d, current %s/%s %d × %d × %d @ %d\n",
				base.Workload, base.Dataset, base.Objects, base.Users, base.Dims, base.GOMAXPROCS,
				doc.Workload, doc.Dataset, doc.Objects, doc.Users, doc.Dims, doc.GOMAXPROCS)
			os.Exit(2)
		}
		for _, r := range doc.Runs {
			k := runKey{r.Engine, r.Mode, r.Workers}
			b, seen := best[k]
			if !seen {
				best[k] = r
				order = append(order, k)
				continue
			}
			if r.SpeedupVsSequential > b.SpeedupVsSequential {
				b.SpeedupVsSequential = r.SpeedupVsSequential
			}
			if r.Comparisons < b.Comparisons {
				b.Comparisons = r.Comparisons
			}
			if r.AllocsPerOp < b.AllocsPerOp {
				b.AllocsPerOp = r.AllocsPerOp
			}
			if !r.IdenticalDeliveries {
				b.IdenticalDeliveries = false
			}
			best[k] = b
		}
	}

	baseRuns := make(map[runKey]experiments.ParallelRun, len(base.Runs))
	for _, r := range base.Runs {
		baseRuns[runKey{r.Engine, r.Mode, r.Workers}] = r
	}

	failures := 0
	for _, k := range order {
		c := best[k]
		b, ok := baseRuns[k]
		if !ok {
			// New configurations have no baseline yet; report, don't gate.
			fmt.Printf("NEW   %-18s %-10s workers=%d  speedup=%.3f\n", c.Engine, c.Mode, c.Workers, c.SpeedupVsSequential)
			continue
		}
		delete(baseRuns, k)

		if !c.IdenticalDeliveries {
			failures++
			fmt.Printf("FAIL  %-18s %-10s workers=%d  sharded deliveries diverged from sequential\n", c.Engine, c.Mode, c.Workers)
			continue
		}
		if c.Comparisons > b.Comparisons {
			failures++
			fmt.Printf("FAIL  %-18s %-10s workers=%d  comparisons %d → %d (deterministic count grew: algorithmic regression)\n",
				c.Engine, c.Mode, c.Workers, b.Comparisons, c.Comparisons)
			continue
		}
		if b.AllocsPerOp > 0 {
			growth := (c.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
			if growth > *maxAllocs {
				failures++
				fmt.Printf("FAIL  %-18s %-10s workers=%d  allocs/op %.1f → %.1f (%+.1f%%: hot path started allocating)\n",
					c.Engine, c.Mode, c.Workers, b.AllocsPerOp, c.AllocsPerOp, growth*100)
				continue
			}
		}
		fmt.Printf("ok    %-18s %-10s workers=%d  speedup %.3f → %.3f (reported, not gated)\n",
			c.Engine, c.Mode, c.Workers, b.SpeedupVsSequential, c.SpeedupVsSequential)
	}
	for k := range baseRuns {
		// A configuration silently disappearing from the sweep is itself a
		// regression — the gate must not pass by measuring less.
		failures++
		fmt.Printf("FAIL  %-18s %-10s workers=%d  present in baseline, missing from current run\n", k.Engine, k.Mode, k.Workers)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s)\n", failures)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regressions across %d configuration(s)\n", len(order))
}
