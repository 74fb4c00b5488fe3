package flight_test

import (
	"testing"
	"time"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
)

// TestRecordNoAllocations pins the hot-path overhead of always-on
// observability: one Record into the ring is zero allocations, and so is the
// one emission call components make — with the ring and a histogram, a
// counter and an outcome counter attached as sinks, through the emitter and
// through an untraced query's scope.
func TestRecordNoAllocations(t *testing.T) {
	r := flight.New("coord", 1024)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(flight.Event{Type: flight.QueryStart, Site: -1, Trace: 42, A1: 7, A2: 9})
	}); allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
	}

	o := obs.NewObserver(obs.ObserverConfig{})
	reg := o.Registry()
	var em obs.Emitter
	em.Attach(o)
	em.Bind(flight.SiteEvaluate, obs.Series{
		Seconds: reg.Histogram("eval_seconds", "", obs.DefaultLatencyBuckets),
		Count:   reg.Counter("evals_total", ""),
		ByA2:    []*obs.Counter{reg.Counter("misses_total", ""), reg.Counter("hits_total", "")},
	})
	if allocs := testing.AllocsPerRun(1000, func() {
		em.Emit(flight.SiteEvaluate, 3, 42, int64(time.Millisecond), flight.EvalCached)
	}); allocs != 0 {
		t.Fatalf("Emit allocates %.1f objects per call, want 0", allocs)
	}
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		sc := em.Query(42, false, time.Time{})
		sc.Span(flight.SiteEvaluate, 3, start, flight.EvalLive)
		sc.RPC(3, start, time.Millisecond, 64, nil)
	}); allocs != 0 {
		t.Fatalf("an untraced scope allocates %.1f objects per query, want 0", allocs)
	}
	if got := reg.Counter("evals_total", "").Value(); got != 2*1001 {
		t.Fatalf("evals_total = %d after %d emissions", got, 2*1001)
	}
	if got, want := reg.Counter("hits_total", "").Value(), int64(1001); got != want {
		t.Fatalf("hits_total = %d, want %d (one per cached evaluation)", got, want)
	}
}
