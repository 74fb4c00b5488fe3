package obs

import (
	"bufio"
	"ccp/internal/obs/flight"
	"encoding/json"
	"fmt"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_level", "level")
	h := r.Histogram("test_lat_seconds", "lat", DefaultLatencyBuckets)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
}

func TestRegistrySameSeriesSharesHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "x", Label{Key: "site", Value: "1"}, Label{Key: "op", Value: "get"})
	// Label order must not matter: the rendered form is sorted by key.
	b := r.Counter("shared_total", "x", Label{Key: "op", Value: "get"}, Label{Key: "site", Value: "1"})
	if a != b {
		t.Fatal("same (name, labels) should return the same handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared handle should see the increment")
	}
	other := r.Counter("shared_total", "x", Label{Key: "site", Value: "2"}, Label{Key: "op", Value: "get"})
	if other == a {
		t.Fatal("different labels must be a different series")
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering clash as gauge after counter should panic")
		}
	}()
	r.Gauge("clash", "x")
}

func TestNilSafety(t *testing.T) {
	// Every handle handed out by a nil registry (and every direct nil
	// handle) must be a usable no-op: the uninstrumented configuration.
	var r *Registry
	r.Counter("a", "").Inc()
	r.Counter("a", "").Add(3)
	r.Gauge("b", "").Set(1)
	r.Gauge("b", "").Add(-1)
	r.Histogram("c", "", nil).Observe(0.5)
	r.GaugeFunc("d", "", func() float64 { return 1 })
	r.CounterFunc("e", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}

	var o *Observer
	if o.Registry() != nil || o.Flight() != nil {
		t.Fatal("nil observer should expose nil parts and no tracing")
	}
	var em Emitter // the zero emitter, attached to nothing
	em.Attach(o)
	em.Emit(flight.Redial, 1, 0, 1, 0)
	sc := em.Query(7, false, time.Time{})
	sc.Emit(flight.QueryStart, -1, 1, 2)
	sc.RPC(0, time.Now(), time.Millisecond, 0, []flight.Event{{Type: flight.SiteEvaluate}})
	if !sc.Span(flight.GraphMerge, -1, time.Now(), 0).IsZero() || sc.Events != nil {
		t.Fatal("a scope with nothing listening must read no clock and keep nothing")
	}
	em.Log().Info("discarded")
}

// promLine matches one sample line of the Prometheus text exposition format
// (version 0.0.4): name, optional labels, one float value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$`)

// checkPrometheusText asserts every line of a /metrics payload is either a
// comment or a well-formed sample — the same check scripts/smoke_ops.sh runs
// against live daemons.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("not a valid exposition line: %q", line)
		}
	}
	if lines == 0 {
		t.Error("empty exposition payload")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorts last").Add(7)
	r.Counter("aa_reqs_total", "requests", Label{Key: "site", Value: "0"}).Add(3)
	r.Counter("aa_reqs_total", "requests", Label{Key: "site", Value: "1"}).Add(5)
	r.Gauge("mid_level", "a gauge").Set(-2)
	r.GaugeFunc("mid_fn", "sampled", func() float64 { return 1.5 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10) // +Inf bucket

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkPrometheusText(t, out)

	for _, want := range []string{
		`aa_reqs_total{site="0"} 3`,
		`aa_reqs_total{site="1"} 5`,
		"# TYPE aa_reqs_total counter",
		"mid_level -2",
		"mid_fn 1.5",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 10.55",
		"lat_seconds_count 3",
		"zz_last_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must come out in name order so scrapes diff cleanly.
	if strings.Index(out, "aa_reqs_total") > strings.Index(out, "zz_last_total") {
		t.Error("families not sorted by name")
	}
}

func TestEscapeLabel(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{Key: "path", Value: "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped: %s", b.String())
	}
}

func TestTraceWriteTimeline(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &Trace{
		TraceID: 0xabc,
		Query:   "controls(1,2)",
		DurNS:   3 * ms,
		Err:     "site 1 stalled",
		Events: []flight.Event{
			{TS: 3 * ms, Trace: 0xabc, Type: flight.GraphMerge, Site: -1, A1: 2 * ms, A2: 40},
			{TS: 1 * ms, Trace: 0xabc, Type: flight.WireRPC, Site: 1, A1: ms, A2: 512},
			{TS: ms / 2, Trace: 0xabc, Type: flight.SiteEvaluate, Site: 1, A1: ms / 2, A2: flight.EvalCached},
		},
	}
	var b strings.Builder
	if err := tr.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"0000000000000abc", "controls(1,2)", "total=3ms", "ERROR site 1 stalled",
		" site-1 ", " coord ", "wire.rpc", "dur=1ms bytes=512", "cached", "graph.merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "site.evaluate") > strings.Index(out, "wire.rpc") ||
		strings.Index(out, "wire.rpc") > strings.Index(out, "graph.merge") {
		t.Errorf("timeline not in time order:\n%s", out)
	}
}

func TestNewTraceIDNeverZeroAndUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id (zero means untraced on the wire)")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %d", id)
		}
		seen[id] = true
	}
}

func TestObserverTraceEnabled(t *testing.T) {
	// A slow-query threshold traces nothing: it marks a coord.answer at or
	// over it with one untraced slow.query event in the ring.
	for _, tc := range []struct {
		threshold time.Duration
		want      int
	}{{0, 0}, {time.Hour, 0}, {time.Second, 1}, {time.Nanosecond, 1}} {
		o := NewObserver(ObserverConfig{SlowQueryThreshold: tc.threshold})
		var em Emitter
		em.Attach(o)
		slow := o.Registry().Counter("slow_queries_total", "")
		em.Bind(flight.SlowQuery, Series{Count: slow})
		sc := em.Query(5, false, time.Time{})
		sc.Emit(flight.CoordAnswer, -1, int64(time.Second), 0)
		if sc.Traced || sc.Events != nil {
			t.Fatalf("threshold %v: the query was traced", tc.threshold)
		}
		evs := slowQueries(o.Flight().Snapshot())
		if len(evs) != tc.want || slow.Value() != int64(tc.want) {
			t.Fatalf("threshold %v: %d slow.query events, counter %d; want %d", tc.threshold, len(evs), slow.Value(), tc.want)
		}
		if tc.want == 1 && (evs[0].Trace != 5 || evs[0].A1 != int64(time.Second)) {
			t.Fatalf("slow.query = %+v, want the query's id and duration", evs[0])
		}
	}
}

// TestEmitFansOutToEverySink drives the one emission call with every sink
// attached and checks they were handed the same event: the bound series, the
// ring, the traced query's buffer and the slog line.
func TestEmitFansOutToEverySink(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	reg := o.Registry()
	var logged strings.Builder
	logger, err := NewLogger(&logged, slog.LevelDebug, "text")
	if err != nil {
		t.Fatal(err)
	}
	var em Emitter
	em.Attach(o)
	em.SetLogger(logger)
	hist := reg.Histogram("rpc_seconds", "", DefaultLatencyBuckets)
	bytes := reg.Counter("rpc_bytes_total", "")
	em.Bind(flight.WireRPC, Series{Seconds: hist, Sum: bytes})

	// A site's scope hands its events back as offsets from the request
	// start; the coordinator's RPC call re-bases them onto its envelope.
	siteStart := time.Now()
	site := em.Query(9, true, siteStart)
	site.Span(flight.GraphClone, 2, siteStart, 100)
	// (Wall-clock TS against monotonic A1: equal to within clock jitter.)
	if len(site.Events) != 1 || site.Events[0].Trace != 9 ||
		time.Duration(site.Events[0].TS-site.Events[0].A1).Abs() > time.Millisecond {
		t.Fatalf("site scope kept %+v, want one event ending A1 past the base", site.Events)
	}
	coord := em.Query(9, true, time.Time{})
	envStart := time.Unix(1000, 0)
	coord.RPC(2, envStart, 5*time.Millisecond, 64, site.Events)
	if len(coord.Events) != 2 {
		t.Fatalf("coordinator scope kept %d events, want envelope + 1 stitched", len(coord.Events))
	}
	rpc, clone := coord.Events[0], coord.Events[1]
	if rpc.Type != flight.WireRPC || rpc.TS-rpc.A1 != envStart.UnixNano() || rpc.A2 != 64 {
		t.Errorf("envelope = %+v, want a wire.rpc starting at the envelope start", rpc)
	}
	if clone.TS != envStart.UnixNano()+site.Events[0].TS {
		t.Errorf("stitched event TS = %d, want envelope start + its offset %d", clone.TS, site.Events[0].TS)
	}

	ring := o.Flight().Snapshot().Events
	if len(ring) != 2 { // graph.clone from the site, wire.rpc from the coordinator; stitching re-emits nothing
		t.Fatalf("ring holds %d events, want 2: %+v", len(ring), ring)
	}
	if hist.Snapshot().Count != 1 || bytes.Value() != 64 {
		t.Errorf("series: %d observations, %d bytes; want 1 and 64", hist.Snapshot().Count, bytes.Value())
	}
	for _, want := range []string{"msg=wire.rpc", "msg=graph.clone", "site=2", "trace=0000000000000009", "bytes=64", "nodes=100"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("slog sink missing %q in:\n%s", want, logged.String())
		}
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{{3, "3"}, {-2, "-2"}, {0, "0"}, {1.5, "1.5"}, {1e9, "1000000000"}} {
		if got := formatValue(tc.in); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestVarSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("b_seconds", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Value != 2 {
		t.Errorf("unexpected first series: %+v", snap[0])
	}
	if snap[1].Hist == nil || snap[1].Hist.Count != 1 {
		t.Errorf("histogram series missing its snapshot: %+v", snap[1])
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"a_total"`) {
		t.Errorf("JSON missing series name: %s", b)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.0001)
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("ccp_queries_total", "Queries answered.").Add(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP ccp_queries_total Queries answered.
	// # TYPE ccp_queries_total counter
	// ccp_queries_total 2
}
