package obs

import (
	"math"
	"sync/atomic"
)

// DefaultLatencyBuckets covers query latencies from 50µs to 30s, in
// seconds, roughly ×2.5 per step — wide enough for both the sub-millisecond
// cached path and a deadline-bounded slow site.
var DefaultLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram with a lock-free Observe: one
// atomic increment for the bucket, one for the total count, and a CAS loop
// for the float sum. Observing on a nil Histogram is a no-op. Snapshots are
// mergeable, so per-shard histograms can be combined into a fleet view.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over the given upper bounds (nil or empty
// selects DefaultLatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot captures the histogram's state. Concurrent Observes may land
// between the bucket reads, so the snapshot is only approximately atomic —
// fine for exposition, where the scrape interval dwarfs the skew.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, safe to
// serialize and derive quantiles from.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank — the same estimate Prometheus's
// histogram_quantile produces. q outside (0, 1] is clamped (NaN reads as 1).
// Values in the +Inf overflow bucket clamp to the highest finite bound
// rather than interpolating toward infinity. Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if math.IsNaN(q) || q > 1 {
		q = 1
	} else if q < 0 {
		q = 0
	}
	top := s.Bounds[len(s.Bounds)-1]
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket (or a corrupt snapshot with extra counts):
			// no finite upper bound to interpolate to.
			return top
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			within := (rank - float64(cum)) / float64(c)
			if within < 0 {
				within = 0
			}
			return lo + (s.Bounds[i]-lo)*within
		}
		cum += c
	}
	return top
}
