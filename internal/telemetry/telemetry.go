// Package telemetry is the operator-facing metrics registry: counters,
// gauges and histograms — optionally labeled — exposed in the Prometheus
// text exposition format (version 0.0.4) at GET /metrics. It is built on
// the standard library alone: series values are atomics, so recording on
// a request path costs one atomic add and never takes the registry lock.
//
// Two recording styles coexist:
//
//   - Direct instruments. Counter/Gauge/Histogram families created once
//     at wiring time hand out per-label-tuple series whose Inc/Add/Set/
//     Observe calls are safe for concurrent use.
//   - Scrape-time collectors. A Collector func registered with
//     RegisterCollector runs on every scrape and emits samples computed
//     from state the process already maintains — e.g. a Monitor's
//     shard-local work counters folded by Stats(), or the WAL footprint
//     from StorageStats(). This is how the ingest hot path stays
//     instrumentation-free: nothing on the per-object path touches
//     telemetry; the already-maintained shard counters are folded into
//     series only when an operator scrapes.
//
// Naming follows the Prometheus conventions: *_total for counters,
// *_seconds for duration histograms, base units throughout. The
// per-tenant label convention is label "tenant"; see docs/OPERATIONS.md
// for the full catalog.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a family's exposition type.
type Kind string

// The exposition types emitted in # TYPE lines.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families and collectors and renders them as
// Prometheus text. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string // registration order; output is name-sorted anyway
	collectors []Collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family with its label schema and series.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series // keyed by rendered label pairs
}

// series is one label-tuple's values. Counters and gauges use bits
// (float64 bits); histograms use counts/sum/total.
type series struct {
	labelPairs string // rendered `k="v",...` (may be "")

	bits atomic.Uint64 // counter/gauge value as math.Float64bits

	counts []atomic.Uint64 // per-bucket (histogram), cumulative on render
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	total  atomic.Uint64
}

func (s *series) add(v float64) {
	for {
		old := s.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (s *series) set(v float64) { s.bits.Store(math.Float64bits(v)) }

func (s *series) value() float64 { return math.Float64frombits(s.bits.Load()) }

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c Counter) Inc() { c.s.add(1) }

// Add adds v; v must not be negative (counters only go up).
func (c Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrement")
	}
	c.s.add(v)
}

// Value returns the current value (for tests and scrape-free reads).
func (c Counter) Value() float64 { return c.s.value() }

// Gauge is a series that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g Gauge) Set(v float64) { g.s.set(v) }

// Add adds v (negative to decrement).
func (g Gauge) Add(v float64) { g.s.add(v) }

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	s      *series
	famPtr *family // bucket bounds live on the family
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.famPtr.buckets, v) // first bucket with upper bound >= v
	h.s.counts[i].Add(1)
	h.s.total.Add(1)
	for {
		old := h.s.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// DefBuckets are the default latency buckets (seconds), matching the
// Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// CounterVec is a counter family; With resolves one label tuple.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family.
type HistogramVec struct{ f *family }

// NewCounter registers (or returns the existing) counter family and, for
// an unlabeled family, its single series.
func (r *Registry) NewCounter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, nil, labels)}
}

// NewGauge registers a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, KindGauge, nil, labels)}
}

// NewHistogram registers a histogram family with the given upper bucket
// bounds (ascending; +Inf is implicit). Nil buckets means DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	bs := make([]float64, len(buckets))
	copy(bs, buckets)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not ascending", name))
		}
	}
	return HistogramVec{r.register(name, help, KindHistogram, bs, labels)}
}

// With resolves the series for the label values (one per declared label,
// in declaration order).
func (v CounterVec) With(values ...string) Counter {
	return Counter{v.f.seriesFor(values)}
}

// With resolves the series for the label values.
func (v GaugeVec) With(values ...string) Gauge {
	return Gauge{v.f.seriesFor(values)}
}

// With resolves the series for the label values.
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{s: v.f.seriesFor(values), famPtr: v.f}
}

func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		buckets: buckets, series: make(map[string]*series)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := renderLabels(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelPairs: key}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1) // +Inf
	}
	f.series[key] = s
	return s
}

// Collector emits samples computed at scrape time. Implementations run
// under the registry lock with the scrape as the only caller, so they
// may read external state but must not call back into the registry.
type Collector func(e *Emitter)

// RegisterCollector adds a scrape-time sample source.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Emitter receives one scrape's collector samples.
type Emitter struct {
	samples map[string]*collected
}

type collected struct {
	help string
	kind Kind
	rows []collectedRow
}

type collectedRow struct {
	labelPairs string
	value      float64
}

// Emit adds one sample. labelPairs alternate key, value:
// Emit("paretomon_tenant_users", "…", KindGauge, 3, "tenant", "movies").
// Repeated Emit calls for one name must agree on help and kind.
func (e *Emitter) Emit(name, help string, kind Kind, value float64, labelPairs ...string) {
	if !validName(name) || len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: bad collector sample %q", name))
	}
	keys := make([]string, len(labelPairs)/2)
	vals := make([]string, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		keys[i/2], vals[i/2] = labelPairs[i], labelPairs[i+1]
	}
	c := e.samples[name]
	if c == nil {
		c = &collected{help: help, kind: kind}
		e.samples[name] = c
	}
	c.rows = append(c.rows, collectedRow{labelPairs: renderLabels(keys, vals), value: value})
}

// WritePrometheus renders every family and collector sample in the
// Prometheus text exposition format, families sorted by name, series
// sorted by label pairs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	e := &Emitter{samples: make(map[string]*collected)}
	for _, c := range collectors {
		c(e)
	}

	type block struct {
		name  string
		lines []string
	}
	var blocks []block
	for _, f := range fams {
		blocks = append(blocks, block{f.name, f.render()})
	}
	for name, c := range e.samples {
		lines := []string{
			fmt.Sprintf("# HELP %s %s", name, escapeHelp(c.help)),
			fmt.Sprintf("# TYPE %s %s", name, c.kind),
		}
		sort.Slice(c.rows, func(i, j int) bool { return c.rows[i].labelPairs < c.rows[j].labelPairs })
		for _, row := range c.rows {
			lines = append(lines, sampleLine(name, row.labelPairs, row.value))
		}
		blocks = append(blocks, block{name, lines})
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].name < blocks[j].name })
	for _, b := range blocks {
		for _, line := range b.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// render renders one family's HELP/TYPE header and every series.
func (f *family) render() []string {
	lines := []string{
		fmt.Sprintf("# HELP %s %s", f.name, escapeHelp(f.help)),
		fmt.Sprintf("# TYPE %s %s", f.name, f.kind),
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ss := make([]*series, len(keys))
	for i, k := range keys {
		ss[i] = f.series[k]
	}
	f.mu.Unlock()
	for _, s := range ss {
		switch f.kind {
		case KindHistogram:
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += s.counts[i].Load()
				lines = append(lines, sampleLine(f.name+"_bucket",
					joinPairs(s.labelPairs, fmt.Sprintf(`le="%s"`, formatFloat(ub))), float64(cum)))
			}
			cum += s.counts[len(f.buckets)].Load()
			lines = append(lines, sampleLine(f.name+"_bucket",
				joinPairs(s.labelPairs, `le="+Inf"`), float64(cum)))
			lines = append(lines, sampleLine(f.name+"_sum", s.labelPairs,
				math.Float64frombits(s.sum.Load())))
			lines = append(lines, sampleLine(f.name+"_count", s.labelPairs,
				float64(s.total.Load())))
		default:
			lines = append(lines, sampleLine(f.name, s.labelPairs, s.value()))
		}
	}
	return lines
}

func sampleLine(name, labelPairs string, v float64) string {
	if labelPairs == "" {
		return fmt.Sprintf("%s %s", name, formatFloat(v))
	}
	return fmt.Sprintf("%s{%s} %s", name, labelPairs, formatFloat(v))
}

func joinPairs(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatFloat renders a sample value: integers without an exponent or
// trailing zeros, everything else in Go's shortest representation.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	pairs := make([]string, len(keys))
	for i := range keys {
		pairs[i] = fmt.Sprintf(`%s="%s"`, keys[i], escapeLabel(values[i]))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// validName checks the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
