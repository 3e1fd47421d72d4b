// Package experiments regenerates every figure and table of the paper's
// evaluation (Sec. 8): Figs. 4–7 (append-only engines: cumulative
// execution time and object comparisons while varying |O| and d),
// Table 11 (accuracy of FilterThenVerifyApprox while varying the branch
// cut h), Figs. 8–11 (sliding-window engines varying W and d), and
// Table 12 (accuracy of FilterThenVerifyApproxSW varying W and h).
//
// Each experiment returns a Report whose rows mirror the series the paper
// plots; cmd/experiments prints them, and bench_test.go wraps each in a
// testing.B benchmark. Absolute numbers differ from the paper (different
// hardware, Go instead of Java, synthetic workloads — see DESIGN.md §4);
// the reproduced claims are the shapes: FilterThenVerify(SW) and
// FilterThenVerifyApprox(SW) beat Baseline(SW) by 1–2 orders of magnitude,
// cost grows super-linearly with d and W, and the approximate engines keep
// near-perfect precision with recall degrading slowly as h shrinks.
//
// The figures and ablations run the procedures as published — one frontier
// member per object (core.NewBaselinePerObject,
// core.NewFilterThenVerifyPerObject) — so their comparison counts are the
// paper's series. The engines a Monitor serves with keep one member per
// attribute tuple (core.TupleClasses), which on these duplicate-heavy
// catalogues removes most of the exact engines' comparisons and none of
// the approximate one's; the parallel experiment and the benchmark measure
// those. Beside the figures the package holds only the ablations and that
// sweep: the durable, replicated and partitioned layers are measured by
// bench/ and held to single-monitor identity by their own tests.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/approx"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/object"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/window"
)

// Options tunes an experiment run. Zero values select the paper's setting
// scaled down by DefaultScale so the full suite completes in CI time;
// Full sets paper scale.
type Options struct {
	// Objects / Users override the dataset size (0 = scaled default).
	Objects int
	Users   int
	// StreamN is the stream length for the window experiments
	// (paper: 1,000,000; scaled default: 20,000).
	StreamN int
	// H is the dendrogram branch cut (paper default 0.55).
	H float64
	// Dims restricts the attribute count (paper default 4).
	Dims int
	// Windows for Figs. 8, 9 and Table 12 (paper: 400..3200).
	Windows []int
	// Hs for Tables 11 and 12 (paper: 0.70, 0.65, 0.60, 0.55).
	Hs []float64
	// Theta1 / Theta2 for the approximate engines (Def. 6.1).
	Theta1 int
	Theta2 float64
	// Workers are the worker counts the parallel sweep measures
	// (default 1, 2, 4, 8); BenchOut, when non-empty, makes the sweep
	// also write its result as JSON (BENCH_parallel.json).
	Workers  []int
	BenchOut string
	// Full runs at paper scale (1000 users, full object tables, 1M
	// streams). Expect minutes to hours.
	Full bool
	// Quiet suppresses progress logging to Log.
	Log io.Writer
}

// Scaled-default knobs: chosen so the whole suite (all figures + tables)
// runs in a few minutes while preserving the paper's effects.
const (
	defObjectsMovie = 4000
	defObjectsPub   = 5000
	defUsers        = 200
	defStreamN      = 20000
)

func (o Options) withDefaults() Options {
	if o.H == 0 {
		o.H = 0.55
	}
	if o.Dims == 0 {
		o.Dims = 4
	}
	if len(o.Windows) == 0 {
		o.Windows = []int{400, 800, 1600, 3200}
	}
	if len(o.Hs) == 0 {
		o.Hs = []float64{0.70, 0.65, 0.60, 0.55}
	}
	if o.Theta1 == 0 {
		// Relations here hold a few thousand closure tuples; θ1 must leave
		// room above the always-included common tuples or the approximate
		// relation degenerates to the exact one.
		o.Theta1 = 2500
	}
	if o.Theta2 == 0 {
		o.Theta2 = 0.5
	}
	if o.StreamN == 0 {
		o.StreamN = defStreamN
		if o.Full {
			o.StreamN = 1_000_000
		}
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// dataset materializes the movie or publication workload at the requested
// scale.
func (o Options) dataset(name string) *datagen.Dataset {
	var cfg datagen.Config
	var defObjects int
	switch name {
	case "movie":
		cfg, defObjects = datagen.Movie(), defObjectsMovie
	case "publication":
		cfg, defObjects = datagen.Publication(), defObjectsPub
	default:
		panic("experiments: unknown dataset " + name)
	}
	objs, users := o.Objects, o.Users
	if !o.Full {
		if objs == 0 {
			objs = defObjects
		}
		if users == 0 {
			users = defUsers
		}
	}
	return datagen.Generate(cfg.Scaled(objs, users))
}

// Report is one regenerated figure/table: a header plus printable rows.
type Report struct {
	ID      string // e.g. "fig4a"
	Title   string
	Columns []string
	Rows    [][]string
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(r.Columns)
	for _, row := range r.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// engine is the minimal monitor interface the drivers need.
type engine interface {
	Process(o object.Object) []int
	UserFrontier(c int) []int
}

// projectUsers restricts every profile to the first d attributes.
func projectUsers(users []*pref.Profile, d int) []*pref.Profile {
	out := make([]*pref.Profile, len(users))
	for i, u := range users {
		out[i] = u.Project(d)
	}
	return out
}

// mapH translates the paper's branch-cut scale to the operative
// similarity range of our synthetic workloads. On the paper's real data,
// pairwise weighted-Jaccard similarities were low and h ∈ [0.55, 0.70]
// spanned coarse-to-fine clusterings; our workloads share a globally
// concordant count coordinate, which floors pairwise similarity much
// higher (cross-group ≈ 2.2–3.6, within-group ≈ 3.6–3.9 out of 4). The
// affine map below sends the paper's h sweep onto the same coarse-to-fine
// clustering granularities (h = 0.55 merges some taste groups, h = 0.70
// keeps them apart), which is what Tables 11–12 actually vary. Anchors
// were calibrated per dataset and measure from the same/cross-group
// similarity distributions; see EXPERIMENTS.md.
// The anchors are calibrated on the full 4-attribute profiles; because
// Eq. 1 sums per-attribute similarities, the cut scales linearly with the
// number of attributes in play (dims), or the d = 2, 3 sweeps of Figs.
// 6/7/10/11 would sit above the entire similarity range and degenerate to
// singleton clusters.
func mapH(dsName string, vector bool, paperH float64, dims int) float64 {
	var lo, hi float64 // paper 0.55 -> lo (coarser), paper 0.70 -> hi (finer)
	switch {
	case dsName == "movie" && !vector:
		lo, hi = 3.30, 3.80
	case dsName == "movie" && vector:
		lo, hi = 2.50, 3.60
	case dsName == "publication" && !vector:
		lo, hi = 3.55, 3.90
	default: // publication, vector
		lo, hi = 2.90, 3.60
	}
	return (lo + (paperH-0.55)*(hi-lo)/0.15) * float64(dims) / 4
}

// exactClusters clusters users with the weighted Jaccard measure (the
// paper's Sec. 5 default) at branch cut h and returns FilterThenVerify
// clusters with exact common preference relations.
func exactClusters(users []*pref.Profile, h float64) []core.Cluster {
	res := cluster.Agglomerative(users, cluster.WeightedJaccard, h)
	out := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		out[i] = core.Cluster{Members: ci.Members, Common: ci.Common}
	}
	return out
}

// approxClusters clusters users with the vector weighted Jaccard measure
// (Sec. 6.3) at branch cut h and equips each cluster with its approximate
// common preference relation (Alg. 3).
func approxClusters(users []*pref.Profile, h float64, theta1 int, theta2 float64) []core.Cluster {
	res := cluster.Agglomerative(users, cluster.VectorWeightedJaccard, h)
	out := make([]core.Cluster, len(res.Clusters))
	for i, ci := range res.Clusters {
		members := make([]*pref.Profile, len(ci.Members))
		for j, id := range ci.Members {
			members[j] = users[id]
		}
		out[i] = core.Cluster{Members: ci.Members, Common: approx.Profile(members, theta1, theta2)}
	}
	return out
}

// engineSpec names one algorithm variant and builds a fresh engine for it.
type engineSpec struct {
	name  string
	build func(ctr *stats.Counters) engine
}

// appendOnlyEngines builds the three Sec. 4–6 engines over d attributes
// for the named dataset (the dataset name selects the h calibration), as
// published: every object its own frontier member.
func appendOnlyEngines(dsName string, users []*pref.Profile, d int, o Options) []engineSpec {
	pu := projectUsers(users, d)
	return []engineSpec{
		{"Baseline", func(ctr *stats.Counters) engine {
			return core.NewBaselinePerObject(pu, ctr)
		}},
		{"FilterThenVerify", func(ctr *stats.Counters) engine {
			return core.NewFilterThenVerifyPerObject(pu, exactClusters(pu, mapH(dsName, false, o.H, d)), ctr)
		}},
		{"FilterThenVerifyApprox", func(ctr *stats.Counters) engine {
			return core.NewFilterThenVerifyPerObject(pu, approxClusters(pu, mapH(dsName, true, o.H, d), o.Theta1, o.Theta2), ctr)
		}},
	}
}

// windowEngines builds the three Sec. 7 engines over d attributes with
// window w.
func windowEngines(dsName string, users []*pref.Profile, d, w int, o Options) []engineSpec {
	pu := projectUsers(users, d)
	return []engineSpec{
		{"BaselineSW", func(ctr *stats.Counters) engine {
			return window.NewBaselineSW(pu, w, ctr)
		}},
		{"FilterThenVerifySW", func(ctr *stats.Counters) engine {
			return window.NewFilterThenVerifySW(pu, exactClusters(pu, mapH(dsName, false, o.H, d)), w, ctr)
		}},
		{"FilterThenVerifyApproxSW", func(ctr *stats.Counters) engine {
			return window.NewFilterThenVerifyApproxSW(pu, approxClusters(pu, mapH(dsName, true, o.H, d), o.Theta1, o.Theta2), w, ctr)
		}},
	}
}

// measured is one engine's cost at one checkpoint.
type measured struct {
	millis      float64
	comparisons uint64
}

// runCheckpoints feeds the stream into a fresh engine and records
// cumulative cost at each checkpoint. Cluster construction time is
// excluded, as in the paper (clustering is offline preprocessing).
func runCheckpoints(spec engineSpec, str *object.Stream, checkpoints []int) []measured {
	ctr := &stats.Counters{}
	eng := spec.build(ctr)
	str.Reset()
	out := make([]measured, 0, len(checkpoints))
	var elapsed time.Duration
	fed := 0
	for _, cp := range checkpoints {
		start := time.Now()
		for fed < cp {
			o, ok := str.Next()
			if !ok {
				break
			}
			eng.Process(o)
			fed++
		}
		elapsed += time.Since(start)
		out = append(out, measured{
			millis:      float64(elapsed.Microseconds()) / 1000.0,
			comparisons: ctr.Comparisons,
		})
	}
	return out
}

func fmtMS(ms float64) string   { return fmt.Sprintf("%.1f", ms) }
func fmtCount(n uint64) string  { return fmt.Sprintf("%d", n) }
func fmtPct(f float64) string   { return fmt.Sprintf("%.2f", 100*f) }
func fmtInt(n int) string       { return fmt.Sprintf("%d", n) }
func fmtFloat(f float64) string { return fmt.Sprintf("%.2f", f) }
