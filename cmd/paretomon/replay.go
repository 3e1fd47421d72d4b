package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	paretomon "repro"
	"repro/internal/approx"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// engineFlags are the offline/serving engine knobs shared by several
// subcommands. Note -h is a raw branch cut on this data's similarity
// scale (Σ over attributes of weighted Jaccard ∈ [0, d]), not the
// paper's normalized axis.
type engineFlags struct {
	alg     string
	h       float64
	theta1  int
	theta2  float64
	win     int
	workers int
}

func (e *engineFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&e.alg, "algorithm", "ftv", "baseline, ftv, or ftva")
	fs.Float64Var(&e.h, "h", 3.3, "clustering branch cut (raw similarity scale)")
	fs.IntVar(&e.theta1, "theta1", 400, "θ1 for ftva")
	fs.Float64Var(&e.theta2, "theta2", 0.5, "θ2 for ftva")
	fs.IntVar(&e.win, "window", 0, "sliding window size (0 = append-only)")
	fs.IntVar(&e.workers, "workers", 1, "ingestion shards (0 = GOMAXPROCS, 1 = one shard, dispatched inline)")
}

// replayValues is everything the offline replay consumes.
type replayValues struct {
	objPath  string
	prefPath string
	eng      engineFlags
	limit    int
	quiet    bool
	timing   bool // bench: report wall-clock throughput
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	v := replayValues{}
	fs.StringVar(&v.objPath, "objects", "", "objects CSV path (required)")
	fs.StringVar(&v.prefPath, "prefs", "", "preference profiles JSON path (required)")
	v.eng.register(fs)
	fs.IntVar(&v.limit, "limit", 0, "process at most N objects (0 = all)")
	fs.BoolVar(&v.quiet, "quiet", false, "suppress per-object delivery lines")
	_ = fs.Parse(args)
	if v.objPath == "" || v.prefPath == "" {
		failf("replay requires -objects and -prefs")
	}
	runReplay(v)
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	v := replayValues{quiet: true, timing: true}
	fs.StringVar(&v.objPath, "objects", "", "objects CSV path (required)")
	fs.StringVar(&v.prefPath, "prefs", "", "preference profiles JSON path (required)")
	v.eng.register(fs)
	fs.IntVar(&v.limit, "limit", 0, "process at most N objects (0 = all)")
	_ = fs.Parse(args)
	if v.objPath == "" || v.prefPath == "" {
		failf("bench requires -objects and -prefs")
	}
	runReplay(v)
}

// runReplay drives the offline dataset replay through the chosen
// engine, printing deliveries (unless quiet) and a closing summary.
func runReplay(v replayValues) {
	of, err := os.Open(v.objPath)
	check(err)
	doms, objs, err := dataset.ReadObjectsCSV(of)
	check(err)
	check(of.Close())

	pf, err := os.Open(v.prefPath)
	check(err)
	users, err := dataset.ReadProfilesJSON(pf, doms)
	check(err)
	check(pf.Close())

	eng := buildEngine(&v.eng, users)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	n := len(objs)
	if v.limit > 0 && v.limit < n {
		n = v.limit
	}
	start := time.Now()
	for _, o := range objs[:n] {
		co := eng.Process(o)
		if !v.quiet && len(co) > 0 {
			fmt.Fprintf(out, "o%d ->", o.ID+1)
			for _, c := range co {
				fmt.Fprintf(out, " u%d", c)
			}
			fmt.Fprintln(out)
		}
	}
	elapsed := time.Since(start)
	totals := eng.Totals()
	fmt.Fprintf(os.Stderr, "processed %d objects for %d users: %s\n", n, len(users), &totals)
	if v.timing {
		rate := float64(n) / elapsed.Seconds()
		fmt.Printf("bench: %d objects in %s (%.0f objects/sec, algorithm=%s, workers=%d, window=%d)\n",
			n, elapsed.Round(time.Millisecond), rate, v.eng.alg, v.eng.workers, v.eng.win)
	}
}

// checkEngine applies the flags' monitor options to the package defaults
// and returns the first error, so that replay and bench, which build their
// engine without a Monitor, refuse exactly the values serve and follow
// get refused by NewMonitor.
func checkEngine(e *engineFlags) error {
	cfg := paretomon.DefaultConfig()
	for _, opt := range engineOptions(e) {
		if err := opt(&cfg); err != nil {
			return err
		}
	}
	return nil
}

// buildEngine assembles the offline engine for the flag set through the
// same per-package constructors the Monitor uses: baseline (no clusters)
// or filter-then-verify, append-only or windowed.
func buildEngine(e *engineFlags, users []*pref.Profile) *core.Sharded {
	if err := checkEngine(e); err != nil {
		failf("%v", err)
	}
	var clusters []core.Cluster
	switch e.alg {
	case "baseline":
	case "ftv", "ftva":
		measure := cluster.WeightedJaccard
		if e.alg == "ftva" {
			measure = cluster.VectorWeightedJaccard
		}
		res := cluster.Agglomerative(users, measure, e.h)
		clusters = make([]core.Cluster, len(res.Clusters))
		for i, ci := range res.Clusters {
			common := ci.Common
			if e.alg == "ftva" {
				members := make([]*pref.Profile, len(ci.Members))
				for j, id := range ci.Members {
					members[j] = users[id]
				}
				common = approx.Profile(members, e.theta1, e.theta2)
			}
			clusters[i] = core.Cluster{Members: ci.Members, Common: common}
		}
	default:
		failf("unknown algorithm %q", e.alg)
	}
	// A replay only ingests: no lifecycle call, so no alive-object source.
	var eng *core.Sharded
	var err error
	switch {
	case e.win > 0:
		eng, err = window.NewSharded(users, clusters, nil, e.win, e.workers, &stats.Counters{})
	case e.alg == "ftva":
		eng, err = core.NewShardedPerObject(users, clusters, nil, nil, e.workers, &stats.Counters{})
	default:
		eng, err = core.NewSharded(users, clusters, nil, nil, e.workers, &stats.Counters{})
	}
	if err != nil {
		failf("%v", err)
	}
	if clusters != nil {
		fmt.Fprintf(os.Stderr, "clustered %d users into %d clusters (h=%.2f, %d workers)\n",
			len(users), len(clusters), e.h, eng.Shards())
	}
	return eng
}
