// Command experiments regenerates the tables and figures of Sultana & Li
// (EDBT 2018), Sec. 8. By default every experiment runs at a reduced scale
// that finishes in minutes; -full switches to paper scale (1,000 users,
// full object tables, 1M-object streams) and can take hours.
//
// Usage:
//
//	experiments [-exp fig4,table11] [-full] [-objects N] [-users N]
//	            [-stream N] [-h 0.55] [-theta1 400] [-theta2 0.5] [-quiet]
//	            [-workers 1,2,4,8] [-benchout BENCH_parallel.json]
//
// Experiment ids: fig4 fig5 fig6 fig7 table11 fig8 fig9 fig10 fig11 table12
// parallel, and the ablations ablation-measures, ablation-theta,
// ablation-granularity and ablation-clustering (not part of "all"). The
// parallel sweep measures ingest throughput of the sharded engines at
// each -workers count, checks their deliveries against the sequential
// engine and, with -benchout, records the sweep as JSON: the
// BENCH_parallel.json baseline cmd/benchdiff gates against. The layers
// above the engines (durability, replication, partitioning) are
// measured by bench/ and held to single-monitor identity by their tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		full     = flag.Bool("full", false, "run at paper scale (slow)")
		objects  = flag.Int("objects", 0, "override object count (0 = default)")
		users    = flag.Int("users", 0, "override user count (0 = default)")
		stream   = flag.Int("stream", 0, "override stream length for window experiments")
		h        = flag.Float64("h", 0, "branch cut on the paper's scale (0 = 0.55)")
		theta1   = flag.Int("theta1", 0, "θ1: approximate relation size budget (0 = default)")
		theta2   = flag.Float64("theta2", 0, "θ2: minimum tuple frequency (0 = default)")
		workers  = flag.String("workers", "", "comma-separated worker counts for the parallel sweep (default 1,2,4,8)")
		benchout = flag.String("benchout", "", "write the parallel sweep as JSON to this path")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	opts := experiments.Options{
		Objects:  *objects,
		Users:    *users,
		StreamN:  *stream,
		H:        *h,
		Theta1:   *theta1,
		Theta2:   *theta2,
		BenchOut: *benchout,
		Full:     *full,
	}
	if *workers != "" {
		for _, field := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "bad -workers entry %q\n", field)
				os.Exit(2)
			}
			opts.Workers = append(opts.Workers, w)
		}
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	ids := experiments.Order
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := experiments.All[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n",
				id, strings.Join(experiments.Order, " "))
			os.Exit(2)
		}
		for _, rep := range run(opts) {
			rep.Print(os.Stdout)
		}
	}
}
