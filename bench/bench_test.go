package main

import (
	"math"
	"regexp"
	"testing"
)

// smoke runs one workload at -scale 0.01 in a temp directory.
func smoke(t *testing.T, sp *spec, trace int) *result {
	t.Helper()
	res, err := run(sp, options{seed: defaultSeed, seconds: 12, scale: 0.01, trace: trace, workdir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%d: correct=%v, %d of %d operations failed", sp.name, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkloadsEmitDeclaredMetrics runs all four workloads, untraced and
// traced, and holds what they print against BENCHMARK.json: every
// declared metric, no other, each with its declared unit, the oracle
// passing and no operation failed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	m := loadManifest(t)
	for _, sp := range specs {
		for trace, declared := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			res := smoke(t, sp, trace)
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", sp.name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not emitted", sp.name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", sp.name, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", sp.name, d.Name, got.Value)
				case trace == 0 && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", sp.name, d.Name)
				}
			}
		}
	}
}

// TestManifestWithinLimits checks BENCHMARK.json against the contract's
// limits and against the workloads this package implements.
func TestManifestWithinLimits(t *testing.T) {
	m := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		use(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, the package implements %q", i, w.Name, specs[i].name)
		}
		if w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("%s: why (%d characters) differs from the package's, or is over 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, mm := range m.EndToEnd {
		use(mm.Name)
		if mm.Bound <= 0 || mm.Bound > 0.25 {
			t.Errorf("%s: bound %v", mm.Name, mm.Bound)
		}
		setup = setup || (mm.Name == "setup_s" && mm.Unit == "s" && mm.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, mm := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(mm.Unit) {
			t.Errorf("%s: bad unit %q", mm.Name, mm.Unit)
		}
		if mm.Better != "lower" && mm.Better != "higher" {
			t.Errorf("%s: better = %q", mm.Name, mm.Better)
		}
	}
	for _, mm := range m.PerLayer {
		use(mm.Name)
	}
}

// TestRoutedMatchesSingleMonitor replays routed_2p's stream through the
// two-partition fleet and through one monitor holding everybody: the
// deliveries, folded into the recorder's digest, must be the same.
func TestRoutedMatchesSingleMonitor(t *testing.T) {
	sp := findSpec("routed_2p")
	in, err := buildInputs(sp, 16, defaultSeed, 40)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCompute()
	digest := func(build func(*inputs, *runEnv) (system, error)) uint64 {
		sys, err := build(in, &runEnv{workdir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ph, err := drive(sys, in, ref, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.close(); err != nil {
			t.Fatal(err)
		}
		if ph.rec.failed > 0 {
			t.Fatalf("%d operations failed: %v", ph.rec.failed, ph.rec.failures)
		}
		return ph.rec.hash
	}
	if routed, single := digest(buildRoutedSys), digest(buildMonitorSys); routed != single {
		t.Errorf("routed deliveries digest %016x, single monitor %016x", routed, single)
	}
}

// TestOracleCatchesAWrongDelivery flips one recorded delivery and expects
// the oracle to object: a checker that cannot fail checks nothing.
func TestOracleCatchesAWrongDelivery(t *testing.T) {
	for _, name := range []string{"batch_ftv", "window_mix"} {
		sp := findSpec(name)
		in, err := buildInputs(sp, 16, defaultSeed, 8)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sp.build(in, &runEnv{workdir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ph, err := drive(sys, in, newRefCompute(), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.close(); err != nil {
			t.Fatal(err)
		}
		if _, wrong, first := checkDeliveries(in, ph.rec); wrong != 0 {
			t.Fatalf("%s: oracle rejects a clean run: %s", name, first)
		}
		ph.rec.masks[0] ^= 1 // arrival 0 is always checked, for the first sampled user
		if _, wrong, _ := checkDeliveries(in, ph.rec); wrong == 0 {
			t.Errorf("%s: oracle accepted a flipped delivery", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
}
