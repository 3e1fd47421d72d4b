package telemetry

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("paretomon_widgets_total", "widgets", "tenant")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Inc()
	g := r.NewGauge("paretomon_depth", "queue depth")
	g.With().Set(4)
	g.With().Add(-1)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP paretomon_widgets_total widgets",
		"# TYPE paretomon_widgets_total counter",
		`paretomon_widgets_total{tenant="a"} 3`,
		`paretomon_widgets_total{tenant="b"} 1`,
		"# TYPE paretomon_depth gauge",
		"paretomon_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.With().Add(-1)
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("paretomon_req_seconds", "latency", []float64{0.1, 1, 10}, "route")
	series := h.With("/objects")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		series.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE paretomon_req_seconds histogram",
		`paretomon_req_seconds_bucket{route="/objects",le="0.1"} 1`,
		`paretomon_req_seconds_bucket{route="/objects",le="1"} 3`,
		`paretomon_req_seconds_bucket{route="/objects",le="10"} 4`,
		`paretomon_req_seconds_bucket{route="/objects",le="+Inf"} 5`,
		`paretomon_req_seconds_sum{route="/objects"} 56.05`,
		`paretomon_req_seconds_count{route="/objects"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "h", []float64{1, 2})
	h.With().Observe(1) // le="1" is inclusive
	out := scrape(t, r)
	if !strings.Contains(out, `h_seconds_bucket{le="1"} 1`) {
		t.Errorf("observation on the boundary missed the le=\"1\" bucket:\n%s", out)
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(e *Emitter) {
		e.Emit("paretomon_tenant_users", "alive users", KindGauge, 7, "tenant", "movies")
		e.Emit("paretomon_tenant_users", "alive users", KindGauge, 3, "tenant", "books")
	})
	out := scrape(t, r)
	if !strings.Contains(out, `paretomon_tenant_users{tenant="books"} 3`) ||
		!strings.Contains(out, `paretomon_tenant_users{tenant="movies"} 7`) {
		t.Errorf("collector samples missing:\n%s", out)
	}
	if strings.Count(out, "# TYPE paretomon_tenant_users") != 1 {
		t.Errorf("family header emitted more than once:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", "with \\ and \n inside", "name")
	c.With("a\"b\\c\nd").Inc()
	out := scrape(t, r)
	if !strings.Contains(out, `esc_total{name="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `# HELP esc_total with \\ and \n inside`) {
		t.Errorf("help not escaped:\n%s", out)
	}
}

// TestExpositionShape lint-checks every line of a mixed scrape against
// the text-format grammar: HELP/TYPE comments exactly once per family,
// name-sorted families, and sample lines of the form
// name{label="value",...} value.
func TestExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "b", "tenant").With("x").Inc()
	r.NewGauge("a_gauge", "a").With().Set(1.5)
	r.NewHistogram("c_seconds", "c", nil, "route").With("/x").Observe(0.2)
	r.RegisterCollector(func(e *Emitter) {
		e.Emit("d_info", "d", KindGauge, 1)
	})
	out := scrape(t, r)

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_+][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.eE+-]+(e[+-][0-9]+)?$`)
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	var families []string
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !comment.MatchString(line) {
				t.Errorf("malformed comment line %q", line)
			}
			if strings.HasPrefix(line, "# TYPE ") {
				name := strings.Fields(line)[2]
				if seenType[name] {
					t.Errorf("duplicate TYPE for %s", name)
				}
				seenType[name] = true
				families = append(families, name)
			}
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Errorf("families not sorted: %s before %s", families[i-1], families[i])
		}
	}
	if len(families) != 4 {
		t.Errorf("want 4 families, got %v", families)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "c", "tenant")
	h := r.NewHistogram("conc_seconds", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.With("t").Inc()
				h.With().Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := c.With("t").Value(); got != 8000 {
		t.Errorf("counter = %v, want 8000", got)
	}
	out := scrape(t, r)
	if !strings.Contains(out, "conc_seconds_count 8000") {
		t.Errorf("histogram count wrong:\n%s", out)
	}
}

func TestReRegisterSameSchemaReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x", "tenant")
	b := r.NewCounter("x_total", "x", "tenant")
	a.With("t").Inc()
	b.With("t").Inc()
	if got := a.With("t").Value(); got != 2 {
		t.Errorf("re-registered family not shared: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema change on re-register did not panic")
		}
	}()
	r.NewGauge("x_total", "x", "tenant")
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {3, "3"}, {-2, "-2"}, {1.5, "1.5"}, {math.Inf(1), "+Inf"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
