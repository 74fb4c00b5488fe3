// Package fleet implements coordinator-side admission control over the
// distributed runtime of internal/dist: the Gate, a fixed pool of execution
// slots with a bounded wait queue in front of it.
package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ccp/internal/dist"
	"ccp/internal/obs"
)

// GateConfig tunes the coordinator's admission gate. The zero value selects
// the defaults noted on each field.
type GateConfig struct {
	// MaxInFlight is the number of queries allowed to execute at once.
	// Default 64.
	MaxInFlight int
	// MaxQueue is how many arrivals may wait for a slot before newcomers are
	// shed outright. Default 2×MaxInFlight.
	MaxQueue int
	// MaxQueueWait bounds how long one arrival waits for a slot before it is
	// shed. Default 50ms.
	MaxQueueWait time.Duration
	// Observer, when non-nil, registers the gate's metrics (admissions,
	// sheds by reason, queue depth/wait) on its registry.
	Observer *obs.Observer
}

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 50 * time.Millisecond
	}
	return c
}

// Gate is a coordinator-side admission controller implementing
// dist.AdmissionGate: a fixed pool of execution slots and a bounded wait
// queue in front of it. Safe for concurrent use.
type Gate struct {
	cfg   GateConfig
	slots chan struct{}

	queued   atomic.Int64
	inflight atomic.Int64

	met gateMetrics
}

// gateMetrics are the gate's series. The counters are always live (bare,
// unregistered handles without an Observer), so every arrival is counted as
// offered and, once decided, as admitted or shed, whether or not the gate is
// instrumented; only the histogram degrades to a nil no-op.
type gateMetrics struct {
	offered   *obs.Counter
	admitted  *obs.Counter
	shedFull  *obs.Counter
	shedWait  *obs.Counter
	queueWait *obs.Histogram
}

// NewGate builds an admission gate.
func NewGate(cfg GateConfig) *Gate {
	cfg = cfg.withDefaults()
	g := &Gate{cfg: cfg, slots: make(chan struct{}, cfg.MaxInFlight)}
	g.met = gateMetrics{
		offered:  &obs.Counter{},
		admitted: &obs.Counter{},
		shedFull: &obs.Counter{},
		shedWait: &obs.Counter{},
	}
	if reg := cfg.Observer.Registry(); reg != nil {
		shed := func(reason string) *obs.Counter {
			return reg.Counter("ccp_admission_shed_total",
				"Queries shed by the admission gate, by tripped limit.",
				obs.Label{Key: "reason", Value: reason})
		}
		g.met = gateMetrics{
			offered: reg.Counter("ccp_admission_offered_total",
				"Arrivals presented to the admission gate (admitted + shed + still deciding)."),
			admitted: reg.Counter("ccp_admission_admitted_total",
				"Queries admitted by the admission gate."),
			shedFull: shed("queue_full"),
			shedWait: shed("queue_wait"),
			queueWait: reg.Histogram("ccp_admission_queue_wait_seconds",
				"Time admitted queries spent waiting for an execution slot.",
				obs.DefaultLatencyBuckets),
		}
		reg.GaugeFunc("ccp_admission_inflight",
			"Admitted queries currently holding an execution slot.",
			func() float64 { return float64(g.inflight.Load()) })
		reg.GaugeFunc("ccp_admission_queued",
			"Arrivals currently waiting for an execution slot.",
			func() float64 { return float64(g.queued.Load()) })
	}
	return g
}

// Admit implements dist.AdmissionGate: it returns a release func once the
// caller holds an execution slot, or a *dist.OverloadError when the query
// should be shed. A free slot admits immediately; otherwise the arrival
// queues up to MaxQueueWait unless the queue is full.
func (g *Gate) Admit(ctx context.Context) (func(), error) {
	g.met.offered.Inc()
	select {
	case g.slots <- struct{}{}:
		g.met.admitted.Inc()
		return g.release(), nil
	default:
	}
	if q := g.queued.Add(1); int(q) > g.cfg.MaxQueue {
		g.queued.Add(-1)
		g.met.shedFull.Inc()
		return nil, g.overloaded("queue full")
	}
	defer g.queued.Add(-1)
	waitStart := time.Now()
	t := time.NewTimer(g.cfg.MaxQueueWait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		g.met.queueWait.Observe(time.Since(waitStart).Seconds())
		g.met.admitted.Inc()
		return g.release(), nil
	case <-t.C:
		g.met.shedWait.Inc()
		return nil, g.overloaded("queue wait exceeded")
	case <-ctx.Done():
		g.met.shedWait.Inc()
		return nil, g.overloaded("caller gave up while queued")
	}
}

// overloaded builds the typed shed error with a point-in-time snapshot.
func (g *Gate) overloaded(reason string) error {
	return &dist.OverloadError{
		Reason:   reason,
		InFlight: len(g.slots),
		Queued:   int(g.queued.Load()),
	}
}

// release hands back the slot exactly once.
func (g *Gate) release() func() {
	g.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			g.inflight.Add(-1)
			<-g.slots
		})
	}
}

var _ dist.AdmissionGate = (*Gate)(nil)
