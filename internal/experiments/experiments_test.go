package experiments_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tiny keeps experiment tests fast while preserving the paper's effects.
// The Baseline-vs-FTV gap grows with the user count (the filter tier
// amortizes over cluster members), so the asserted factor here is far
// below the paper's full-scale 1–2 orders of magnitude.
func tiny() experiments.Options {
	return experiments.Options{
		Objects: 1000,
		Users:   120,
		StreamN: 2500,
		Windows: []int{100, 200},
		Hs:      []float64{0.70, 0.55},
	}
}

// cell parses a numeric report cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return f
}

func TestFig4ShapeAndFormat(t *testing.T) {
	reps := experiments.Fig4(tiny())
	if len(reps) != 2 || reps[0].ID != "fig4a" || reps[1].ID != "fig4b" {
		t.Fatalf("reports = %v", reps)
	}
	cmp := reps[1] // comparisons
	if len(cmp.Rows) != 4 {
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	last := cmp.Rows[len(cmp.Rows)-1]
	base := cell(t, last[1])
	ftv := cell(t, last[2])
	ftva := cell(t, last[3])
	// The headline claim: the filter-then-verify engines do substantially
	// fewer comparisons than Baseline (the paper reports 1–2 orders of
	// magnitude at full scale; at this test's scale demand at least 1.8×).
	if ftv >= base/1.8 {
		t.Errorf("FTV comparisons %v not well below Baseline %v", ftv, base)
	}
	if ftva >= base/1.8 {
		t.Errorf("FTVA comparisons %v not well below Baseline %v", ftva, base)
	}
	// Cumulative counts must be non-decreasing down the checkpoint rows.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for _, row := range cmp.Rows {
			v := cell(t, row[col])
			if v < prev {
				t.Errorf("column %d not cumulative: %v after %v", col, v, prev)
			}
			prev = v
		}
	}
	// Print must produce a header plus rows.
	var buf bytes.Buffer
	cmp.Print(&buf)
	if lines := strings.Count(buf.String(), "\n"); lines < 6 {
		t.Errorf("Print produced %d lines:\n%s", lines, buf.String())
	}
}

func TestFig6DimsGrow(t *testing.T) {
	reps := experiments.Fig6(tiny())
	cmp := reps[1]
	if len(cmp.Rows) != 3 { // d = 2, 3, 4
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	// Baseline comparisons grow with d (larger frontiers).
	if cell(t, cmp.Rows[0][1]) >= cell(t, cmp.Rows[2][1]) {
		t.Errorf("comparisons should grow from d=2 (%s) to d=4 (%s)", cmp.Rows[0][1], cmp.Rows[2][1])
	}
}

func TestTable11Accuracy(t *testing.T) {
	reps := experiments.Table11(tiny())
	rep := reps[0]
	if len(rep.Rows) != 4 { // 2 datasets × 2 h values
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		p := cell(t, row[3])
		r := cell(t, row[4])
		f := cell(t, row[5])
		// Theorems 6.5/6.7: false positives only sneak in via false
		// negatives; precision should be near-perfect and recall high.
		if p < 95 {
			t.Errorf("precision %v%% too low (%v)", p, row)
		}
		if r < 50 {
			t.Errorf("recall %v%% implausibly low (%v)", r, row)
		}
		if f <= 0 || f > 100 {
			t.Errorf("F out of range: %v", row)
		}
	}
}

func TestFig8WindowShape(t *testing.T) {
	reps := experiments.Fig8(tiny())
	cmp := reps[1]
	if len(cmp.Rows) != 2 { // two windows
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	for _, row := range cmp.Rows {
		base := cell(t, row[1])
		ftv := cell(t, row[2])
		if ftv >= base {
			t.Errorf("W=%s: FTVSW comparisons %v not below BaselineSW %v", row[0], ftv, base)
		}
	}
	// Wider windows cost more (larger frontiers).
	if cell(t, cmp.Rows[0][1]) >= cell(t, cmp.Rows[1][1]) {
		t.Errorf("BaselineSW cost should grow with W: %v vs %v", cmp.Rows[0][1], cmp.Rows[1][1])
	}
}

func TestTable12Accuracy(t *testing.T) {
	reps := experiments.Table12(tiny())
	rep := reps[0]
	if len(rep.Rows) != 8 { // 2 datasets × 2 windows × 2 h
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if p := cell(t, row[3]); p < 95 {
			t.Errorf("precision %v%% too low (%v)", p, row)
		}
		if r := cell(t, row[4]); r < 50 {
			t.Errorf("recall %v%% implausibly low (%v)", r, row)
		}
	}
}

// The parallel sweep must verify delivery-identity for every sharded
// run and report one row per engine × mode × worker count.
func TestParallelSweep(t *testing.T) {
	o := tiny()
	o.Objects, o.Users = 400, 40
	o.Workers = []int{2, 4}
	rep := experiments.Parallel(o)[0]
	if rep.ID != "parallel" {
		t.Fatalf("ID = %q", rep.ID)
	}
	// 2 engines × (1 sequential baseline + 2 modes × 2 worker counts).
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	identCol := -1
	for i, col := range rep.Columns {
		if col == "identical" {
			identCol = i
		}
	}
	if identCol < 0 {
		t.Fatalf("no identical column in %v", rep.Columns)
	}
	for _, row := range rep.Rows {
		if row[identCol] != "true" {
			t.Errorf("deliveries diverged: %v", row)
		}
		if ops := cell(t, row[5]); ops <= 0 {
			t.Errorf("non-positive throughput: %v", row)
		}
		if ao := cell(t, row[len(row)-1]); ao <= 0 {
			t.Errorf("non-positive allocs/op: %v", row)
		}
	}
}

func TestAllRegistryComplete(t *testing.T) {
	// 10 paper experiments and the parallel sweep, plus 4 ablations.
	if len(experiments.Order) != 11 || len(experiments.All) != 15 {
		t.Fatalf("registry: %d runners, %d ordered", len(experiments.All), len(experiments.Order))
	}
	for _, id := range experiments.Order {
		if experiments.All[id] == nil {
			t.Errorf("missing runner %s", id)
		}
	}
	for _, id := range []string{"ablation-measures", "ablation-theta", "ablation-granularity", "ablation-clustering"} {
		if experiments.All[id] == nil {
			t.Errorf("missing ablation %s", id)
		}
	}
}

// The granularity ablation must exhibit the k-vs-m U-shape of Sec. 4's
// complexity analysis: the group-granularity optimum beats both the
// all-users mega-cluster and the all-singletons extreme.
func TestAblationGranularityUShape(t *testing.T) {
	rep := experiments.AblationGranularity(tiny())[0]
	first := cell(t, rep.Rows[0][3])
	last := cell(t, rep.Rows[len(rep.Rows)-1][3])
	best := first
	for _, row := range rep.Rows {
		if v := cell(t, row[3]); v < best {
			best = v
		}
	}
	if best >= first || best >= last {
		t.Errorf("no U-shape: first=%v best=%v last=%v", first, best, last)
	}
}
