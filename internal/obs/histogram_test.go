package obs

import (
	"errors"
	"math"
	"strings"
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

func eq(a, b HistogramSnapshot) bool {
	if a.Count != b.Count || a.Sum != b.Sum || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
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

// merge is the test-side Merge wrapper: mismatches are fatal.
func merge(t *testing.T, a, b HistogramSnapshot) HistogramSnapshot {
	t.Helper()
	m, err := a.Merge(b)
	if err != nil {
		t.Fatalf("merge failed: %v", err)
	}
	return m
}

func TestHistogramMergeCommutativeAssociative(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	a := snap(bounds, 0.0005, 0.05, 2)
	b := snap(bounds, 0.005, 0.005, 0.5)
	c := snap(bounds, 3, 0.0001)

	if !eq(merge(t, a, b), merge(t, b, a)) {
		t.Error("merge is not commutative")
	}
	if !eq(merge(t, merge(t, a, b), c), merge(t, a, merge(t, b, c))) {
		t.Error("merge is not associative")
	}

	m := merge(t, merge(t, a, b), c)
	if m.Count != 8 {
		t.Errorf("merged count = %d, want 8", m.Count)
	}
	var total uint64
	for _, n := range m.Counts {
		total += n
	}
	if total != m.Count {
		t.Errorf("bucket totals %d != count %d", total, m.Count)
	}

	// The zero snapshot is the identity in both positions.
	if !eq(merge(t, a, HistogramSnapshot{}), a) || !eq(merge(t, HistogramSnapshot{}, a), a) {
		t.Error("zero snapshot is not the merge identity")
	}

	// Merging must not alias or mutate its inputs.
	before := a.Counts[0]
	merge(t, a, b)
	if a.Counts[0] != before {
		t.Error("merge mutated its receiver")
	}
}

func TestHistogramMergeMismatch(t *testing.T) {
	var mismatch *BucketMismatchError
	check := func(name string, a, b HistogramSnapshot) {
		t.Helper()
		m, err := a.Merge(b)
		if err == nil {
			t.Fatalf("%s: merge of mismatched snapshots succeeded", name)
		}
		if !errors.As(err, &mismatch) {
			t.Fatalf("%s: error %T is not *BucketMismatchError", name, err)
		}
		if m.Count != 0 || m.Counts != nil {
			t.Fatalf("%s: failed merge returned non-zero snapshot %+v", name, m)
		}
	}
	check("bound value", snap([]float64{1, 2}, 0.5), snap([]float64{1, 3}, 0.5))
	check("bound count", snap([]float64{1, 2}, 0.5), snap([]float64{1, 2, 3}, 0.5))
	corrupt := snap([]float64{1, 2}, 0.5)
	corrupt.Counts = corrupt.Counts[:2] // JSON from a buggy writer
	check("count length", snap([]float64{1, 2}, 0.5), corrupt)
	if msg := mismatch.Error(); !strings.Contains(msg, "mismatch") {
		t.Fatalf("error text %q does not name the mismatch", msg)
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
