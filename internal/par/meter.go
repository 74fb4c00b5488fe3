package par

import (
	"sync"
	"time"
)

// Meter records the critical path of parallel constructs. On a machine with
// fewer cores than workers (in the limit, a single core), the blocks of a
// barrier run serialized, so their individually measured times still equal
// what each of w dedicated cores would spend; the barrier's contribution to
// a true w-core wall clock is its longest block. Summing per-barrier
// critical paths and the unparallelized remainder yields the simulated
// elapsed time the same run would achieve on w real cores — the quantity
// the Figure 8.d cores sweep needs on hosts without 20 CPUs.
//
// A nil *Meter is valid and records nothing. A Meter must not be shared by
// concurrent runs.
type Meter struct {
	mu        sync.Mutex
	start     time.Time
	critical  time.Duration // Σ per-barrier longest block
	blockTime time.Duration // Σ all block times
	elapsed   time.Duration
}

// NewMeter returns a started Meter.
func NewMeter() *Meter { return &Meter{start: time.Now()} }

// record merges one barrier's block timings into the meter.
func (m *Meter) record(blocks []time.Duration) {
	if m == nil {
		return
	}
	var max, sum time.Duration
	for _, b := range blocks {
		sum += b
		if b > max {
			max = b
		}
	}
	m.mu.Lock()
	m.critical += max
	m.blockTime += sum
	m.mu.Unlock()
}

// Stop freezes the measured wall-clock time.
func (m *Meter) Stop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.elapsed = time.Since(m.start)
	m.mu.Unlock()
}

// Elapsed returns the measured wall-clock time between NewMeter and Stop.
func (m *Meter) Elapsed() time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.elapsed
}

// SimulatedElapsed estimates the wall-clock the metered run would take with
// one dedicated core per worker: the unparallelized remainder plus each
// barrier's critical path. On a host that truly has enough cores it
// approaches Elapsed from below.
func (m *Meter) SimulatedElapsed() time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	serial := m.elapsed - m.blockTime
	if serial < 0 {
		serial = 0
	}
	return serial + m.critical
}
