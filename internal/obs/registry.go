// Package obs is the repo's stdlib-only observability subsystem: a
// concurrent metrics registry (counters, gauges, fixed-bucket histograms
// with lock-free hot paths and mergeable snapshots), the Emitter that hands
// each flight.Event to the series, the flight ring and slog, distributed
// query traces stitched from per-site events, and an operational HTTP
// server exposing /metrics (Prometheus text format), /healthz, /varz,
// /debug/flight and /debug/pprof.
//
// Instrumentation is nil-safe throughout: every method on a nil *Counter,
// *Gauge, *Histogram, *Registry or *Observer is a no-op, so
// library users who pass no registry pay only a nil check on the hot path.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered as key="value" in the Prometheus
// exposition format.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. All methods are single
// atomic operations and safe for concurrent use; methods on a nil Counter
// are no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the Prometheus counter contract).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are single atomic
// operations; methods on a nil Gauge are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric is one labeled time series inside a family.
type metric struct {
	labels  string // rendered `k="v",k2="v2"`, empty for unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // counterfunc / gaugefunc sampled at scrape time
}

// family is every series sharing one metric name (and therefore one HELP and
// TYPE line).
type family struct {
	name string
	help string
	typ  string // "counter", "gauge" or "histogram"

	mu      sync.Mutex
	byLabel map[string]*metric
	ordered []*metric // registration order; sorted at exposition time
}

// Registry is a concurrent collection of metric families. Registration
// (Counter, Gauge, Histogram, ...) takes a lock and should be done once at
// component construction; the returned handles are then updated with plain
// atomics. Registering the same (name, labels) twice returns the same
// handle, so independent components may share a series. All methods are
// nil-safe: a nil *Registry hands out nil handles whose updates are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns a label list into its canonical exposition form,
// sorting by key so the same set always maps to the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the (name, labels) series, checking that the
// family's type matches. A type clash is a programming error and panics.
func (r *Registry) lookup(name, help, typ string, labels []Label) *metric {
	r.mu.Lock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*metric)}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.byLabel[ls]
	if m == nil {
		m = &metric{labels: ls}
		f.byLabel[ls] = m
		f.ordered = append(f.ordered, m)
	}
	return m
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, "counter", labels)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, "gauge", labels)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (nil selects DefaultLatencyBuckets). Bounds must be strictly
// increasing; series sharing a name must share bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, "histogram", labels)
	if m.hist == nil {
		m.hist = NewHistogram(bounds)
	}
	return m.hist
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time — the way to expose state a component already tracks
// (connection state, cache size) without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, "gauge", labels)
	m.fn = fn
}

// CounterFunc is GaugeFunc with counter semantics, for monotone totals a
// component already counts (requests served, connections accepted).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, "counter", labels)
	m.fn = fn
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fs := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fs = append(fs, f)
	}
	r.mu.Unlock()
	sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	return fs
}

// sortedMetrics snapshots one family's series in label order.
func (f *family) sortedMetrics() []*metric {
	f.mu.Lock()
	ms := make([]*metric, len(f.ordered))
	copy(ms, f.ordered)
	f.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].labels < ms[j].labels })
	return ms
}

// value samples the scalar value of a counter/gauge series.
func (m *metric) value() float64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.gauge != nil:
		return float64(m.gauge.Value())
	}
	return 0
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), families in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, m := range f.sortedMetrics() {
			var err error
			if f.typ == "histogram" {
				err = writeHistogram(w, f.name, m.labels, m.hist.Snapshot())
			} else {
				err = writeSample(w, f.name, m.labels, m.value())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample emits one `name{labels} value` line.
func writeSample(w io.Writer, name, labels string, v float64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	return err
}

// writeHistogram emits the _bucket/_sum/_count triplet of one histogram
// series.
func writeHistogram(w io.Writer, name, labels string, s HistogramSnapshot) error {
	cum := uint64(0)
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	for i, ub := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n",
			name, prefix, formatValue(ub), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count", name)
	if err != nil {
		return err
	}
	if labels != "" {
		if _, err := fmt.Fprintf(w, "{%s}", labels); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, " %d\n", s.Count)
	return err
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// VarSnapshot is the /varz JSON view of one series.
type VarSnapshot struct {
	Name   string             `json:"name"`
	Type   string             `json:"type"`
	Labels string             `json:"labels,omitempty"`
	Value  float64            `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot captures every series as JSON-ready values; histograms include
// their full bucket vectors plus derived p50/p95/p99.
func (r *Registry) Snapshot() []VarSnapshot {
	if r == nil {
		return nil
	}
	var out []VarSnapshot
	for _, f := range r.sortedFamilies() {
		for _, m := range f.sortedMetrics() {
			vs := VarSnapshot{Name: f.name, Type: f.typ, Labels: m.labels}
			if f.typ == "histogram" {
				s := m.hist.Snapshot()
				vs.Hist = &s
			} else {
				vs.Value = m.value()
			}
			out = append(out, vs)
		}
	}
	return out
}
