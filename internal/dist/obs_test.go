package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"strconv"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
)

// fillNonZero sets every settable field of v to a non-zero value, so a
// struct can be checked field-by-field after an accumulation pass.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fillNonZero(s.Index(0))
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillNonZero(v.Field(i))
			}
		}
	}
}

// TestMetricsAddQueryCoversAllFields guards the batch accumulator against
// new Metrics fields: every field of a fully non-zero query Metrics must
// reach the batch total through AddQuery. Adding a field to Metrics without
// teaching AddQuery about it fails here, not in a dashboard three weeks
// later.
func TestMetricsAddQueryCoversAllFields(t *testing.T) {
	// DecidedBy is deliberately not accumulated: a batch has no single
	// deciding site (documented on AddQuery).
	exceptions := map[string]bool{"DecidedBy": true}

	var q Metrics
	fillNonZero(reflect.ValueOf(&q).Elem())

	var total Metrics
	total.AddQuery(&q)

	tv := reflect.ValueOf(total)
	for i := 0; i < tv.NumField(); i++ {
		name := tv.Type().Field(i).Name
		if exceptions[name] {
			continue
		}
		if tv.Field(i).IsZero() {
			t.Errorf("Metrics.%s is not accumulated by AddQuery — new field without accumulation?", name)
		}
	}
}

// traceTestCluster builds a 2-partition graph with a control chain that
// crosses the cut (0 -> 1 -> 5 -> 6), serves both partitions over real TCP,
// and returns connected remote clients.
func traceTestCluster(t *testing.T) []SiteClient {
	t.Helper()
	g := graph.New(8)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 5}, {5, 6}, {2, 3}, {4, 7}} {
		if err := g.AddEdge(e[0], e[1], 0.9); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		addr := startServer(t, NewSite(p, 1))
		c, err := Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

// TestStitchedTraceOverTCP checks that the sinks of the one emission call
// cannot drift apart: over a 4-site loopback-TCP cluster sharing one
// Observer, with every query traced, each timed layer shows up the same
// number of times in its histogram, in the flight ring and across the
// returned traces, and every contacted site contributes to every trace.
func TestStitchedTraceOverTCP(t *testing.T) {
	// A control chain through all four partitions (0→1→5→6→9→10→13→14) plus
	// local stakes, so queries are decided locally, revalidated, served
	// from cache and merged at the coordinator.
	g := graph.New(16)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 5}, {5, 6}, {6, 9}, {9, 10}, {10, 13}, {13, 14},
		{2, 3}, {4, 7}, {8, 11}, {12, 15}} {
		if err := g.AddEdge(e[0], e[1], 0.9); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.ObserverConfig{})
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		site := NewSite(p, 1)
		site.Observe(o)
		c, err := DialConfig(context.Background(), startServer(t, site), ClientConfig{Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Observer: o})

	reg := o.Registry()
	histCount := func(name string, labels ...obs.Label) int {
		return int(reg.Histogram(name, "", obs.DefaultLatencyBuckets, labels...).Snapshot().Count)
	}
	perSite := func(name string) func() int {
		return func() int {
			n := 0
			for i := range pi.Parts {
				n += histCount(name, obs.Label{Key: "site", Value: strconv.Itoa(i)})
			}
			return n
		}
	}
	// The series each timed layer feeds; layers with no /metrics series
	// today are checked ring against traces only.
	series := map[flight.Type]func() int{
		flight.CoordAnswer:  func() int { return histCount(MetricQuerySeconds) },
		flight.GraphMerge:   func() int { return histCount(MetricQueryPhaseSeconds, obs.Label{Key: "phase", Value: "merge"}) },
		flight.MergeReduce:  func() int { return histCount(MetricQueryPhaseSeconds, obs.Label{Key: "phase", Value: "reduce"}) },
		flight.SiteEvaluate: perSite("ccp_site_evaluate_seconds"),
		flight.SiteReduce:   perSite("ccp_site_reduce_seconds"),
	}

	inTraces := map[flight.Type]int{}
	outcomes := map[int64]bool{}
	queries := []control.Query{{S: 0, T: 14}, {S: 0, T: 1}, {S: 2, T: 3}, {S: 5, T: 13}, {S: 0, T: 14}, {S: 12, T: 3}}
	for _, q := range queries {
		ans, m, tr, err := coord.AnswerTraced(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := control.CBE(g, q); ans != want {
			t.Fatalf("%v = %v, CBE says %v", q, ans, want)
		}
		if tr == nil || tr.TraceID == 0 || tr.DurNS <= 0 {
			t.Fatalf("%v: no usable trace: %+v", q, tr)
		}
		bySite := map[int32]int{}
		for _, e := range tr.Events {
			inTraces[e.Type]++
			if e.Type != flight.WireRPC && e.Site >= 0 {
				bySite[e.Site]++
			}
			if e.Type == flight.SiteEvaluate {
				outcomes[e.A2] = true
			}
			if e.Trace != tr.TraceID {
				t.Errorf("%v: event %v carries id %x, trace is %x", q, e.Type, e.Trace, tr.TraceID)
			}
			if !e.Type.Layer() {
				continue
			}
			// Read as a span the layer began at TS − A1: inside the query,
			// give or take the re-basing error of one network flight.
			if begin := e.TS - e.A1 - tr.Start.UnixNano(); e.A1 < 0 || begin < -int64(time.Millisecond) || begin > tr.DurNS {
				t.Errorf("%v: %v runs [%d, +%d] of a %dns query", q, e.Type, begin, e.A1, tr.DurNS)
			}
		}
		for site := 0; site < m.SitesQueried; site++ {
			if bySite[int32(site)] < 1 {
				t.Errorf("%v: contacted site %d contributed no events: %v", q, site, bySite)
			}
		}
	}
	for _, how := range []int64{flight.EvalLive, flight.EvalCached, flight.EvalDecided, flight.EvalRevalidated} {
		if !outcomes[how] {
			t.Errorf("no evaluation was served the %d way; the queries no longer cover every exit", how)
		}
	}

	inRing := map[flight.Type]int{}
	dump := o.Flight().Snapshot()
	if dump.Dropped != 0 {
		t.Fatalf("ring dropped %d events; grow it", dump.Dropped)
	}
	for _, e := range dump.Events {
		inRing[e.Type]++
	}
	for typ := flight.QueryStart; typ < flight.NumTypes; typ++ {
		if !typ.Layer() {
			continue
		}
		if inRing[typ] == 0 {
			t.Errorf("%v never emitted", typ)
		}
		if inRing[typ] != inTraces[typ] {
			t.Errorf("%v: %d in the ring, %d across the traces", typ, inRing[typ], inTraces[typ])
		}
		if count, ok := series[typ]; ok && count() != inRing[typ] {
			t.Errorf("%v: histogram counts %d, ring holds %d", typ, count(), inRing[typ])
		}
	}
	if inRing[flight.CoordAnswer] != len(queries) || inRing[flight.WireRPC] != len(queries)*len(pi.Parts) {
		t.Errorf("%d queries over %d sites left %d coord.answer and %d wire.rpc events",
			len(queries), len(pi.Parts), inRing[flight.CoordAnswer], inRing[flight.WireRPC])
	}
}

// TestFailedQueryTraceHoldsFailingSiteEnvelope: the trace of a failed query
// shows how far the query got — including the wire.rpc envelope of the site
// that failed it, with the time the coordinator spent waiting — and so does
// the flight ring.
func TestFailedQueryTraceHoldsFailingSiteEnvelope(t *testing.T) {
	g := graph.New(4)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.ObserverConfig{})
	coord := NewCoordinator([]SiteClient{
		&LocalClient{Site: NewSite(pi.Parts[0], 1)},
		&faultClient{SiteClient: &LocalClient{Site: NewSite(pi.Parts[1], 1)}, delay: 10 * time.Second},
	}, Options{Workers: 1, Observer: o})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, tr, err := coord.AnswerTraced(ctx, control.Query{S: 0, T: 3})
	if err == nil {
		t.Fatal("query through a stalled site succeeded")
	}
	if tr == nil || tr.Err == "" {
		t.Fatalf("failed query returned trace %+v", tr)
	}
	stalled := func(events []flight.Event) bool {
		for _, e := range events {
			if e.Type == flight.WireRPC && e.Site == 1 && e.Trace == tr.TraceID &&
				time.Duration(e.A1) >= 90*time.Millisecond {
				return true
			}
		}
		return false
	}
	if !stalled(tr.Events) {
		t.Errorf("trace lacks site 1's ≥90ms wire.rpc: %+v", tr.Events)
	}
	if !stalled(o.Flight().Snapshot().Events) {
		t.Errorf("ring lacks site 1's ≥90ms wire.rpc")
	}
}

// untracedOnly fails the test if a site is asked to send its events back or
// sends some anyway.
type untracedOnly struct {
	SiteClient
	t *testing.T
}

func (c untracedOnly) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	pa, n, err := c.SiteClient.Evaluate(ctx, q, opts)
	if opts.Trace || (pa != nil && pa.Events != nil) {
		c.t.Errorf("site %d: traced request (%v) or reply with %d events", c.SiteID(), opts.Trace, len(pa.Events))
	}
	return pa, n, err
}

// TestSlowQueryLogCapturesDistributedQueries: a slow-query threshold traces
// nothing. Every query beats a 1ns threshold, and each leaves one slow.query
// event in the ring with the id and duration of its coord.answer; the
// query's other events are in the ring under that id.
func TestSlowQueryLogCapturesDistributedQueries(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{SlowQueryThreshold: time.Nanosecond})
	clients := traceTestCluster(t)
	for i, cl := range clients {
		clients[i] = untracedOnly{cl, t}
	}
	coord := NewCoordinator(clients, Options{Observer: o})
	if _, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 6}); err != nil {
		t.Fatal(err)
	}
	var answers, slow []flight.Event
	for _, e := range o.Flight().Snapshot().Events {
		switch e.Type {
		case flight.CoordAnswer:
			answers = append(answers, e)
		case flight.SlowQuery:
			slow = append(slow, e)
		}
	}
	if len(answers) != 1 || len(slow) != 1 {
		t.Fatalf("ring holds %d coord.answer and %d slow.query events, want 1 each", len(answers), len(slow))
	}
	if slow[0].Trace == 0 || slow[0].Trace != answers[0].Trace || slow[0].A1 != answers[0].A1 {
		t.Errorf("slow.query %+v does not carry coord.answer's id and duration %+v", slow[0], answers[0])
	}
	if got := o.Registry().Counter("ccp_slow_queries_total", "").Value(); got != 1 {
		t.Errorf("ccp_slow_queries_total = %d, want 1", got)
	}
}

// TestUntracedRequestsCarryNoSpans: a site sends its events back only when
// asked. The query id alone — set on every request — must not turn that on.
func TestUntracedRequestsCarryNoSpans(t *testing.T) {
	clients := traceTestCluster(t)
	q := control.Query{S: 0, T: 6}
	pa, _, err := clients[1].Evaluate(context.Background(), q, EvalOptions{QueryID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Events != nil {
		t.Fatalf("untraced evaluate returned %d events", len(pa.Events))
	}
	pa, _, err = clients[1].Evaluate(context.Background(), q, EvalOptions{QueryID: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Events) == 0 {
		t.Fatal("traced evaluate returned no events")
	}
	for _, e := range pa.Events {
		// Offsets from the site's request start, not wall-clock instants.
		if e.Trace != 5 || e.TS < 0 || e.TS > int64(pa.Elapsed)+int64(time.Millisecond) {
			t.Errorf("event %v: id %d, TS %d (evaluation took %v)", e.Type, e.Trace, e.TS, pa.Elapsed)
		}
	}
}

// TestSiteEvaluateDecidedAllocs pins the unobserved site's decided exit —
// the path most queries of the local workload take: the answer itself is the
// only allocation, the event plumbing adds none.
func TestSiteEvaluateDecidedAllocs(t *testing.T) {
	site := testSite(t)
	q := control.Query{S: 0, T: 1}
	allocs := testing.AllocsPerRun(200, func() {
		pa, err := site.Evaluate(context.Background(), q, EvalOptions{QueryID: 9})
		if err != nil || pa.Ans != control.True {
			t.Fatalf("evaluate = %+v, %v", pa, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("decided evaluation allocates %.1f objects, want 1 (the PartialAnswer)", allocs)
	}
}

func TestCoordinatorMetricsRegistered(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	coord := NewCoordinator(traceTestCluster(t), Options{Observer: o})
	if _, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 6}); err != nil {
		t.Fatal(err)
	}
	reg := o.Registry()
	if got := reg.Counter("ccp_queries_total", "").Value(); got != 1 {
		t.Errorf("ccp_queries_total = %d, want 1", got)
	}
	if got := reg.Histogram(MetricQuerySeconds, "", obs.DefaultLatencyBuckets).Snapshot().Count; got != 1 {
		t.Errorf("%s count = %d, want 1", MetricQuerySeconds, got)
	}
	for _, phase := range []string{"sites", "merge", "reduce"} {
		h := reg.Histogram(MetricQueryPhaseSeconds, "", obs.DefaultLatencyBuckets,
			obs.Label{Key: "phase", Value: phase})
		if h.Snapshot().Count == 0 {
			t.Errorf("phase %q not observed", phase)
		}
	}
}

// FuzzTraceIDWireRoundTrip checks what observability puts on the socket:
// the query id and the trace bit survive the gob request frame unchanged
// (an invented trace bit would turn event shipping on cluster-wide), and a
// response carrying any []flight.Event — unknown Type bytes, negative
// operands, none or ten thousand of them — comes back identical through the
// frame and decodePartial, and prints without panicking.
func FuzzTraceIDWireRoundTrip(f *testing.F) {
	f.Add(uint64(0), false, uint16(0), []byte{})
	f.Add(uint64(1), true, uint16(1), []byte{byte(flight.SiteEvaluate), 1, 2, 3})
	f.Add(^uint64(0), true, uint16(10000), []byte{250, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80})
	f.Add(uint64(1)<<63, false, uint16(3), []byte{0})
	f.Fuzz(func(t *testing.T, id uint64, trace bool, n uint16, raw []byte) {
		var buf bytes.Buffer
		req := request{ID: 42, Op: opEvaluate, S: 1, T: 2, QueryID: id, Trace: trace}
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			t.Fatal(err)
		}
		var gotReq request
		if err := gob.NewDecoder(&buf).Decode(&gotReq); err != nil {
			t.Fatal(err)
		}
		if gotReq.QueryID != id || gotReq.Trace != trace {
			t.Fatalf("request (id %d, trace %v) -> (%d, %v)", id, trace, gotReq.QueryID, gotReq.Trace)
		}

		// Events are cut from the fuzz bytes: a type byte, then operands
		// read at shifting offsets so negative and huge values all occur.
		var events []flight.Event
		if n > 10000 {
			n = 10000
		}
		at := func(i int) int64 {
			var v uint64
			for k := 0; k < 8 && len(raw) > 0; k++ {
				v = v<<8 | uint64(raw[(i+k)%len(raw)])
			}
			return int64(v)
		}
		for i := 0; i < int(n) && len(raw) > 0; i++ {
			events = append(events, flight.Event{
				Type: flight.Type(raw[i%len(raw)]), TS: at(i + 1), A1: at(i + 2), A2: at(i + 3),
				Site: int32(at(i + 4)), Trace: id,
			})
		}
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&response{ID: 42, SiteID: 3, Events: events}); err != nil {
			t.Fatal(err)
		}
		var gotResp response
		if err := gob.NewDecoder(&buf).Decode(&gotResp); err != nil {
			t.Fatal(err)
		}
		pa, err := decodePartial(&gotResp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 && pa.Events != nil {
			t.Fatalf("a response without events grew %d", len(pa.Events))
		}
		if !reflect.DeepEqual(pa.Events, events) {
			t.Fatalf("events round-trip: sent %d, got %d", len(events), len(pa.Events))
		}
		for _, e := range pa.Events {
			_ = e.Detail()
			if name := e.Type.String(); e.Type >= flight.NumTypes && name != "type"+strconv.Itoa(int(e.Type)) {
				t.Fatalf("unknown type %d prints as %q", e.Type, name)
			}
		}
	})
}
