package paretomon_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 8). Each BenchmarkFigN / BenchmarkTableN wraps the corresponding
// experiment driver at a reduced scale so `go test -bench=.` completes in
// minutes; `go run ./cmd/experiments -full` reruns them at paper scale.
// The reported custom metrics are the quantities the paper plots:
// comparisons/op for the figures' (b) panels and precision/recall for the
// accuracy tables.

import (
	"fmt"
	"strconv"
	"testing"

	paretomon "repro"
	"repro/internal/experiments"
)

// benchOpts is the shared reduced scale for benchmark runs.
func benchOpts() experiments.Options {
	return experiments.Options{
		Objects: 1500,
		Users:   120,
		StreamN: 4000,
		Windows: []int{200, 400},
		Hs:      []float64{0.70, 0.55},
	}
}

// reportComparisons publishes the last-row comparison counts of a "(b)"
// comparisons report as custom benchmark metrics, one per engine column.
func reportComparisons(b *testing.B, rep *experiments.Report) {
	b.Helper()
	last := rep.Rows[len(rep.Rows)-1]
	for i, col := range rep.Columns[1:] {
		v, err := strconv.ParseFloat(last[i+1], 64)
		if err != nil {
			b.Fatalf("bad cell %q: %v", last[i+1], err)
		}
		b.ReportMetric(v, col+"_cmp")
	}
}

// reportAccuracy publishes the worst-row precision and recall of an
// accuracy table as custom metrics.
func reportAccuracy(b *testing.B, rep *experiments.Report) {
	b.Helper()
	minP, minR := 100.0, 100.0
	for _, row := range rep.Rows {
		p, _ := strconv.ParseFloat(row[3], 64)
		r, _ := strconv.ParseFloat(row[4], 64)
		if p < minP {
			minP = p
		}
		if r < minR {
			minR = r
		}
	}
	b.ReportMetric(minP, "min_precision_%")
	b.ReportMetric(minR, "min_recall_%")
}

func benchFigure(b *testing.B, run func(experiments.Options) []*experiments.Report) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reps := run(benchOpts())
		if len(reps) == 2 {
			reportComparisons(b, reps[1])
		} else {
			reportAccuracy(b, reps[0])
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4a/4b: Baseline vs FilterThenVerify vs
// FilterThenVerifyApprox on the movie workload, varying |O|.
func BenchmarkFig4(b *testing.B) { benchFigure(b, experiments.Fig4) }

// BenchmarkFig5 regenerates Fig. 5a/5b on the publication workload.
func BenchmarkFig5(b *testing.B) { benchFigure(b, experiments.Fig5) }

// BenchmarkFig6 regenerates Fig. 6a/6b: movie workload, d ∈ {2, 3, 4}.
func BenchmarkFig6(b *testing.B) { benchFigure(b, experiments.Fig6) }

// BenchmarkFig7 regenerates Fig. 7a/7b: publication workload, d ∈ {2, 3, 4}.
func BenchmarkFig7(b *testing.B) { benchFigure(b, experiments.Fig7) }

// BenchmarkTable11 regenerates Table 11: accuracy of FilterThenVerifyApprox
// while varying the branch cut h.
func BenchmarkTable11(b *testing.B) { benchFigure(b, experiments.Table11) }

// BenchmarkFig8 regenerates Fig. 8a/8b: sliding-window engines on the
// movie stream, varying W.
func BenchmarkFig8(b *testing.B) { benchFigure(b, experiments.Fig8) }

// BenchmarkFig9 regenerates Fig. 9a/9b on the publication stream.
func BenchmarkFig9(b *testing.B) { benchFigure(b, experiments.Fig9) }

// BenchmarkFig10 regenerates Fig. 10a/10b: movie stream, d ∈ {2, 3, 4}.
func BenchmarkFig10(b *testing.B) { benchFigure(b, experiments.Fig10) }

// BenchmarkFig11 regenerates Fig. 11a/11b: publication stream, d ∈ {2,3,4}.
func BenchmarkFig11(b *testing.B) { benchFigure(b, experiments.Fig11) }

// BenchmarkTable12 regenerates Table 12: accuracy of
// FilterThenVerifyApproxSW while varying W and h.
func BenchmarkTable12(b *testing.B) { benchFigure(b, experiments.Table12) }

// --- ablations beyond the paper (see internal/experiments/ablation.go) ---

// reportAblation publishes min/max comparison counts across the ablation
// rows, exposing the spread the design choice controls.
func reportAblation(b *testing.B, rep *experiments.Report, col int) {
	b.Helper()
	minV, maxV := -1.0, -1.0
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			continue // non-numeric marker rows
		}
		if minV < 0 || v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	b.ReportMetric(minV, "best_cmp")
	b.ReportMetric(maxV, "worst_cmp")
}

// BenchmarkAblationMeasures compares the six similarity measures as the
// clustering driver for FilterThenVerify.
func BenchmarkAblationMeasures(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reportAblation(b, experiments.AblationMeasures(benchOpts())[0], 4)
	}
}

// BenchmarkAblationTheta sweeps θ1/θ2 for FilterThenVerifyApprox.
func BenchmarkAblationTheta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reportAblation(b, experiments.AblationTheta(benchOpts())[0], 2)
	}
}

// BenchmarkAblationGranularity sweeps the branch cut across the operative
// range, exposing the k-vs-m U-shape of Sec. 4's complexity analysis.
func BenchmarkAblationGranularity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reportAblation(b, experiments.AblationGranularity(benchOpts())[0], 3)
	}
}

// benchCommunity builds a moderately sized synthetic community and object
// stream for exercising the public ingestion API.
func benchCommunity(b *testing.B, users, objects int) (*paretomon.Community, []paretomon.Object) {
	b.Helper()
	brands := []string{"Apple", "Lenovo", "Sony", "Toshiba", "Samsung", "Acer", "Asus", "Dell"}
	cpus := []string{"single", "dual", "triple", "quad", "octa"}
	s := paretomon.NewSchema("brand", "CPU")
	com := paretomon.NewCommunity(s)
	for i := 0; i < users; i++ {
		u, err := com.AddUser(fmt.Sprintf("u%d", i))
		if err != nil {
			b.Fatal(err)
		}
		// Rotate a preference chain so users differ but overlap.
		for j := 0; j+1 < len(brands); j++ {
			_ = u.Prefer("brand", brands[(i+j)%len(brands)], brands[(i+j+1)%len(brands)])
		}
		_ = u.PreferChain("CPU", cpus[i%len(cpus)], cpus[(i+1)%len(cpus)], cpus[(i+2)%len(cpus)])
	}
	objs := make([]paretomon.Object, objects)
	for i := range objs {
		objs[i] = paretomon.Object{
			Name:   fmt.Sprintf("o%d", i),
			Values: []string{brands[i%len(brands)], cpus[(i/3)%len(cpus)]},
		}
	}
	return com, objs
}

// BenchmarkMonitorAdd ingests one object at a time through the v2 API.
func BenchmarkMonitorAdd(b *testing.B) {
	com, objs := benchCommunity(b, 60, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mon, err := paretomon.NewMonitor(com, paretomon.WithBranchCut(0.3))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, o := range objs {
			if _, err := mon.Add(o.Name, o.Values...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMonitorAddBatch ingests the same stream as one batch,
// measuring the amortization of the per-arrival locking and allocation.
func BenchmarkMonitorAddBatch(b *testing.B) {
	com, objs := benchCommunity(b, 60, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mon, err := paretomon.NewMonitor(com, paretomon.WithBranchCut(0.3))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := mon.AddBatch(objs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorAddBatchLongStream is an AddBatch of 256 into a monitor
// that already holds 100 000 objects: the per-arrival bookkeeping (name
// claims, registry slots) must not grow with what the stream has seen.
func BenchmarkMonitorAddBatchLongStream(b *testing.B) {
	const held, batch = 100_000, 256
	com, objs := benchCommunity(b, 60, held+batch)
	mon, err := paretomon.NewMonitor(com, paretomon.WithBranchCut(0.3), paretomon.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < held; i += batch {
		if _, err := mon.AddBatch(objs[i:min(i+batch, held)]); err != nil {
			b.Fatal(err)
		}
	}
	next := objs[held:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range next {
			next[j].Name = "n" + strconv.Itoa(i*batch+j)
		}
		b.StartTimer()
		if _, err := mon.AddBatch(next); err != nil {
			b.Fatal(err)
		}
	}
}
