package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"ccp/internal/obs/flight"
)

// Trace is one query's stitched cross-site record: every flight.Event the
// coordinator emitted for the query plus every contacted site's events, on
// one timeline. Sites send theirs back as offsets from the start of the
// request they served and the coordinator re-bases them onto the wire.rpc
// envelope it measured around the call, so the timeline is exact per process
// and off by at most one network flight across processes, whatever the
// clocks say. A timed layer's event carries its end (TS) and duration (A1);
// read as a span it began at TS − A1.
type Trace struct {
	// TraceID is the query's id — the Trace field of every event below and
	// of the same query's events in each process's flight ring.
	TraceID uint64
	Query   string
	Start   time.Time
	// DurNS is the end-to-end query latency in nanoseconds.
	DurNS  int64
	Events []flight.Event
	// Err records the failure for traces of failed queries, empty on
	// success.
	Err string
}

// WriteTimeline prints a one-line summary and then the events in the flight
// timeline format — what `ccpctl query -solver dist -verbose` shows, and the
// same lines `ccpctl flight -trace <id>` prints for the query.
func (t *Trace) WriteTimeline(w io.Writer) error {
	status := ""
	if t.Err != "" {
		status = "  ERROR " + t.Err
	}
	if _, err := fmt.Fprintf(w, "trace %016x %s total=%v%s\n", t.TraceID, t.Query, time.Duration(t.DurNS), status); err != nil {
		return err
	}
	return flight.WriteTimeline(w, flight.MergeTimeline(flight.Dump{Events: t.Events}))
}

// globalTraceIDs backs NewTraceID. Seeded from the clock so ids differ
// across process restarts.
var globalTraceIDs atomic.Uint64

func init() { globalTraceIDs.Store(uint64(time.Now().UnixNano())) }

// NewTraceID allocates a process-unique, never-zero query id (zero marks an
// event outside any query).
func NewTraceID() uint64 {
	id := globalTraceIDs.Add(1)
	for id == 0 {
		id = globalTraceIDs.Add(1)
	}
	return id
}

// ObserverConfig configures an Observer.
type ObserverConfig struct {
	// SlowQueryThreshold is the stitched-trace duration above which a query
	// lands in the slow-query log. 0 disables the slow log — and with it
	// the per-query tracing the coordinator would otherwise do for every
	// query (explicitly requested traces still work).
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds the slow-query ring buffer. Default 64.
	SlowLogCapacity int
	// FlightEvents bounds the flight recorder's event ring. 0 selects
	// flight.DefaultEvents; negative disables the recorder entirely.
	FlightEvents int
	// Process attributes flight-recorder events in merged cross-process
	// timelines ("coord", "site-3").
	Process string
}

// Observer is where a process's events land: the metrics registry, the
// flight ring and the slow-query log. One Observer is shared by a whole
// process (coordinator + clients, or server + site); components reach it
// through the Emitter they attach to it. All methods are nil-safe, so a
// component holding a nil Observer runs uninstrumented at the cost of a nil
// check.
type Observer struct {
	reg    *Registry
	slow   *SlowLog
	flight *flight.Recorder
}

// NewObserver builds an observer with a fresh registry, a flight recorder
// (unless cfg.FlightEvents < 0), and, when cfg.SlowQueryThreshold > 0, a
// slow-query log.
func NewObserver(cfg ObserverConfig) *Observer {
	o := &Observer{reg: NewRegistry()}
	if cfg.SlowQueryThreshold > 0 {
		o.slow = NewSlowLog(cfg.SlowLogCapacity, cfg.SlowQueryThreshold)
	}
	if cfg.FlightEvents >= 0 {
		o.flight = flight.New(cfg.Process, cfg.FlightEvents)
	}
	return o
}

// Registry returns the observer's metrics registry (nil for a nil
// observer — registrations against it hand out nil, no-op handles).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Flight returns the observer's flight recorder — nil for a nil observer or
// when recording was disabled, which downstream instrumentation tolerates
// (a nil *flight.Recorder records nothing).
func (o *Observer) Flight() *flight.Recorder {
	if o == nil {
		return nil
	}
	return o.flight
}

// SlowLog returns the slow-query log, nil when disabled.
func (o *Observer) SlowLog() *SlowLog {
	if o == nil {
		return nil
	}
	return o.slow
}

// ReducerObs is the reduction engine's telemetry bundle: built once by the
// component that owns the reducer (site or coordinator) and threaded
// through control.Options. All fields may be nil; a nil *ReducerObs is a
// no-op recorder, so the reducer hot loop pays one nil check per round.
type ReducerObs struct {
	// Rounds counts reduction rounds (R1/R2 removal and R3 contraction
	// rounds both).
	Rounds *Counter
	// RemovedR1 / RemovedR2 count nodes removed by rule R1 (no controlling
	// out-edges) and R2 (cannot be controlled); Contracted counts nodes
	// contracted by rule R3.
	RemovedR1, RemovedR2 *Counter
	Contracted           *Counter
	// FrontierSize observes the per-round dirty-frontier width.
	FrontierSize *Histogram
}

// RemoveRound records one R1/R2 round.
func (o *ReducerObs) RemoveRound(r1, r2, frontier int) {
	if o == nil {
		return
	}
	o.Rounds.Inc()
	o.RemovedR1.Add(int64(r1))
	o.RemovedR2.Add(int64(r2))
	o.FrontierSize.Observe(float64(frontier))
}

// ContractRound records one R3 round.
func (o *ReducerObs) ContractRound(contracted, frontier int) {
	if o == nil {
		return
	}
	o.Rounds.Inc()
	o.Contracted.Add(int64(contracted))
	o.FrontierSize.Observe(float64(frontier))
}

// NewReducerObs registers the reduction-engine series on reg under the
// given component label ("site-3", "coord") and returns the bundle. A nil
// registry yields a usable all-no-op bundle.
func NewReducerObs(reg *Registry, component string) *ReducerObs {
	l := Label{Key: "component", Value: component}
	return &ReducerObs{
		Rounds:     reg.Counter("ccp_reduce_rounds_total", "Reduction rounds run (R1/R2 removal and R3 contraction rounds).", l),
		RemovedR1:  reg.Counter("ccp_reduce_removed_total", "Nodes removed by reduction rules R1/R2, by rule.", l, Label{Key: "rule", Value: "r1"}),
		RemovedR2:  reg.Counter("ccp_reduce_removed_total", "Nodes removed by reduction rules R1/R2, by rule.", l, Label{Key: "rule", Value: "r2"}),
		Contracted: reg.Counter("ccp_reduce_contracted_total", "Nodes contracted by reduction rule R3.", l),
		FrontierSize: reg.Histogram("ccp_reduce_frontier_size",
			"Dirty-frontier width per reduction round.", DefaultCountBuckets, l),
	}
}
