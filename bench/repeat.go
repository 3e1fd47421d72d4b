package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// repeat runs two interleaved sets (A1 B1 A2 B2 …) of o.repeat runs per
// workload, each run a fresh process on its own seed, and holds them
// against BENCHMARK.json the way the driver does: per metric, the
// interquartile spread of each set as a share of its median, and how much
// worse set B's median is than set A's, both against the metric's bound.
// It returns the process exit code: 1 if any metric breaks its bound.
func repeat(o options) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -repeat runs from the repository root: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var names []string
	for _, w := range m.Workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	// values[workload][metric][set] lists one value per run.
	values := map[string]map[string]*[2][]float64{}
	for run := 0; run < o.repeat; run++ {
		for set := 0; set < 2; set++ {
			for _, w := range names {
				seed := o.seed + int64(run)
				fmt.Fprintf(os.Stderr, "set %c run %d/%d %s seed %d\n", 'A'+set, run+1, o.repeat, w, seed)
				res, err := runChild(self, o, w, seed, m.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "    capacity %.1f obj/s (raw %.1f), delivery p50 %.4f ms (raw %.4f), setup %.3f s (raw %.3f)\n",
					res.Metrics["capacity_obj_s"].Value, res.Metrics["bench.raw_capacity_obj_s"].Value,
					res.Metrics["delivery_p50_ms"].Value, res.Metrics["bench.raw_delivery_p50_ms"].Value,
					res.Metrics["setup_s"].Value, res.Metrics["bench.raw_setup_s"].Value)
				if values[w] == nil {
					values[w] = map[string]*[2][]float64{}
				}
				for name, v := range res.Metrics {
					if values[w][name] == nil {
						values[w][name] = &[2][]float64{}
					}
					values[w][name][set] = append(values[w][name][set], v.Value)
				}
			}
		}
	}

	fmt.Printf("%-11s %-20s %12s %12s %12s %8s %8s %8s %7s\n",
		"workload", "metric", "median", "q1", "q3", "iqr A", "iqr B", "B vs A", "bound")
	code := 0
	for _, w := range names {
		for _, mm := range m.EndToEnd {
			sets := values[w][mm.Name]
			if sets == nil {
				fmt.Printf("%-11s %-20s missing\n", w, mm.Name)
				code = 1
				continue
			}
			q1, med, q3 := quartiles(append(append([]float64(nil), sets[0]...), sets[1]...))
			a1, aMed, a3 := quartiles(sets[0])
			b1, bMed, b3 := quartiles(sets[1])
			worse := (bMed - aMed) / aMed
			if mm.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/aMed, (b3-b1)/bMed
			verdict := ""
			switch {
			case worse > mm.Bound:
				verdict, code = "SETS DISAGREE", 1
			case mm.Name != "setup_s" && max(spreadA, spreadB) > mm.Bound:
				verdict, code = "TOO NOISY", 1
			case mm.Name != "setup_s" && max(spreadA, spreadB) > mm.Bound/3:
				verdict = "spread over a third of the bound"
			}
			fmt.Printf("%-11s %-20s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %6.1f%% %s\n",
				w, mm.Name, med, q1, q3, 100*spreadA, 100*spreadB, 100*worse, 100*mm.Bound, verdict)
		}
		// What the same runs look like on the raw wall clock.
		for _, name := range []string{"bench.raw_setup_s", "bench.raw_capacity_obj_s", "bench.raw_delivery_p50_ms"} {
			if sets := values[w][name]; sets != nil {
				q1, med, q3 := quartiles(append(append([]float64(nil), sets[0]...), sets[1]...))
				a1, aMed, a3 := quartiles(sets[0])
				b1, bMed, b3 := quartiles(sets[1])
				fmt.Printf("%-11s %-20s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%%         (raw, not gated)\n",
					w, strings.TrimPrefix(name, "bench."), med, q1, q3, 100*(a3-a1)/aMed, 100*(b3-b1)/bMed, 100*(bMed-aMed)/aMed)
			}
		}
	}
	return code
}

// runChild runs one workload in a fresh process and parses the result on
// the last line of its output.
func runChild(self string, o options, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self,
		"-workdir", o.workdir, "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	var last []byte
	raw := map[string]metric{} // the ungated raw wall-clock lines, for comparison
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
		if f := strings.Fields(sc.Text()); len(f) == 5 && f[3] == "(not" && strings.HasPrefix(f[1], "bench.raw_") {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				raw[f[1]] = metric{Value: v}
			}
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run incorrect: %d of %d operations failed", res.Failed, res.Attempted)
	}
	for name, v := range raw {
		res.Metrics[name] = v
	}
	return &res, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), which is
// what the driver computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	if len(vs) < 2 {
		return vs[0], vs[0], vs[0]
	}
	const n = 4
	var q [n]float64
	m := len(vs) + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(vs)-1)
		delta := float64(i*m - j*n)
		q[i] = (vs[j-1]*(n-delta) + vs[j]*delta) / n
	}
	return q[1], q[2], q[3]
}
