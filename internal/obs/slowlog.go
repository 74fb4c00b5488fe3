package obs

import (
	"sync"
	"time"

	"ccp/internal/obs/flight"
)

// SlowLog is a bounded ring buffer of stitched traces whose end-to-end
// latency crossed a threshold. Recording copies the trace (its events
// included), overwriting the oldest entry once the ring is full, so memory is
// bounded no matter how bad a day the cluster is having. All methods are
// nil-safe.
type SlowLog struct {
	threshold time.Duration

	mu    sync.Mutex
	ring  []*Trace
	total int64 // lifetime recorded count; the next record lands at total % cap
}

// NewSlowLog builds a slow-query log holding the last capacity (default 64)
// traces over threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &SlowLog{threshold: threshold, ring: make([]*Trace, 0, capacity)}
}

// Record stores an owned copy of t if it is at or over threshold, reporting
// whether it did. The caller keeps ownership of t.
func (l *SlowLog) Record(t *Trace) bool {
	if l == nil || t == nil || time.Duration(t.DurNS) < l.threshold {
		return false
	}
	c := *t
	c.Events = append([]flight.Event(nil), t.Events...)
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, &c)
	} else {
		l.ring[l.total%int64(cap(l.ring))] = &c
	}
	l.total++
	l.mu.Unlock()
	return true
}

// Total reports how many traces have ever been recorded (recorded-total
// minus capacity have been overwritten).
func (l *SlowLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the stored traces, newest first. The traces are the
// log's own copies; callers must not mutate them.
func (l *SlowLog) Snapshot() []*Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Trace, 0, len(l.ring))
	for i := int64(1); i <= int64(len(l.ring)); i++ {
		out = append(out, l.ring[(l.total-i)%int64(cap(l.ring))])
	}
	return out
}
