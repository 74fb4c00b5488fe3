package obs

import (
	"math"
	"testing"
)

// snap builds a snapshot by observing vals into a fresh histogram.
func snap(bounds []float64, vals ...float64) HistogramSnapshot {
	h := NewHistogram(bounds)
	for _, v := range vals {
		h.Observe(v)
	}
	return h.Snapshot()
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Prometheus semantics: upper bounds are inclusive (v <= bound lands in
	// the bucket), values over the highest bound land in +Inf.
	s := snap([]float64{1, 10}, 0.5, 1, 1.0001, 10, 11)
	want := []uint64{2, 2, 1}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-23.5001) > 1e-9 {
		t.Errorf("sum = %v, want 23.5001", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations spread evenly through (0, 1] over ten 0.1-wide
	// buckets: the q-quantile should land near q.
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	h := NewHistogram(bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		if math.Abs(got-q) > 0.1 {
			t.Errorf("Quantile(%v) = %v, want within one bucket of %v", q, got, q)
		}
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Values past the last bound clamp to the highest finite bound rather
	// than inventing an estimate inside +Inf — even when every observation
	// overflowed and even for low quantiles of the overflow mass.
	over := snap([]float64{1, 2}, 5, 6, 7)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := over.Quantile(q); got != 2 {
			t.Errorf("overflow Quantile(%v) = %v, want clamp to 2", q, got)
		}
	}
	// Out-of-range q clamps instead of misindexing: q > 1 and NaN read as
	// the max, q <= 0 as the min.
	if got := s.Quantile(2); got != s.Quantile(1) {
		t.Errorf("Quantile(2) = %v, want Quantile(1) = %v", got, s.Quantile(1))
	}
	if got := s.Quantile(math.NaN()); got != s.Quantile(1) {
		t.Errorf("Quantile(NaN) = %v, want Quantile(1) = %v", got, s.Quantile(1))
	}
	if got := s.Quantile(-3); got != s.Quantile(0) {
		t.Errorf("Quantile(-3) = %v, want Quantile(0) = %v", got, s.Quantile(0))
	}
	// A corrupt snapshot with more counts than bounds must not panic.
	corrupt := snap([]float64{1}, 0.5, 5)
	corrupt.Counts = append(corrupt.Counts, 9)
	corrupt.Count += 9
	if got := corrupt.Quantile(0.99); got != 1 {
		t.Errorf("corrupt-snapshot quantile = %v, want clamp to 1", got)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds should panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestHistogramNilDefaultBounds(t *testing.T) {
	h := NewHistogram(nil)
	if len(h.Snapshot().Bounds) != len(DefaultLatencyBuckets) {
		t.Fatal("nil bounds should select DefaultLatencyBuckets")
	}
	if got := len(NewHistogram([]float64{}).Snapshot().Bounds); got != len(DefaultLatencyBuckets) {
		t.Fatalf("empty bounds selected %d buckets, want DefaultLatencyBuckets", got)
	}
}
