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
	// SlowQueryThreshold marks a query whose coord.answer duration reaches
	// it with one slow.query event in the flight ring, carrying the query's
	// id and duration. 0 marks none. No query is traced for it: the query's
	// events are already in the ring of every process it touched, under its
	// id.
	SlowQueryThreshold time.Duration
	// Process attributes flight-recorder events in merged cross-process
	// timelines ("coord", "site-3").
	Process string
}

// Observer is where a process's events land: the metrics registry and the
// flight ring of its last flight.DefaultEvents events. One Observer is
// shared by a whole process (coordinator + clients, or server + site);
// components reach it through the Emitter they attach to it. All methods are
// nil-safe, so a component holding a nil Observer runs uninstrumented at the
// cost of a nil check.
type Observer struct {
	reg    *Registry
	flight *flight.Recorder
	slow   time.Duration
}

// NewObserver builds an observer with a fresh registry and flight ring.
func NewObserver(cfg ObserverConfig) *Observer {
	return &Observer{reg: NewRegistry(), flight: flight.New(cfg.Process, flight.DefaultEvents),
		slow: cfg.SlowQueryThreshold}
}

// Registry returns the observer's metrics registry (nil for a nil
// observer — registrations against it hand out nil, no-op handles).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Flight returns the observer's flight recorder — nil for a nil observer,
// which downstream instrumentation tolerates (a nil *flight.Recorder records
// nothing).
func (o *Observer) Flight() *flight.Recorder {
	if o == nil {
		return nil
	}
	return o.flight
}
