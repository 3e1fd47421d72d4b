package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	paretomon "repro"
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

// runReplay loads the dataset as serve does, builds the Monitor from
// the engine flags and adds the rows one by one under serve's boot
// names o1, o2, ..., printing each delivery (unless quiet: its users in
// name order) and a closing summary; bench times the adds.
func runReplay(v replayValues) {
	com, rows := loadDataset(v.objPath, v.prefPath)
	mon, err := paretomon.NewMonitor(com, engineOptions(&v.eng)...)
	check(err)
	defer mon.Close()
	if v.eng.alg != "baseline" {
		fmt.Fprintf(os.Stderr, "clustered %d users into %d clusters (h=%.2f, %d workers)\n",
			com.Len(), len(mon.Clusters()), v.eng.h, mon.Stats().Workers)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	n := len(rows)
	if v.limit > 0 && v.limit < n {
		n = v.limit
	}
	start := time.Now()
	for i, row := range rows[:n] {
		d, err := mon.Add(fmt.Sprintf("o%d", i+1), row...)
		check(err)
		if !v.quiet && len(d.Users) > 0 {
			fmt.Fprintf(out, "%s -> %s\n", d.Object, strings.Join(d.Users, " "))
		}
	}
	elapsed := time.Since(start)
	s := mon.Stats()
	fmt.Fprintf(os.Stderr, "processed %d objects for %d users: cmp=%d (filter=%d verify=%d) delivered=%d processed=%d\n",
		n, com.Len(), s.Comparisons, s.FilterComparisons, s.VerifyComparisons, s.Delivered, s.Processed)
	if v.timing {
		rate := float64(n) / elapsed.Seconds()
		fmt.Printf("bench: %d objects in %s (%.0f objects/sec, algorithm=%s, workers=%d, window=%d)\n",
			n, elapsed.Round(time.Millisecond), rate, v.eng.alg, v.eng.workers, v.eng.win)
	}
}
