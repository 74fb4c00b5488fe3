package main

import (
	"math"
	"sort"
)

// The estimators below assume one-sided noise: on a shared VM a sample is
// only ever slowed (preemption, a neighbour's cache traffic, a GC cycle),
// never sped up. The fastest samples are therefore the clean ones. The
// second-fastest, rather than the minimum, is kept so that a single sample
// shortened by a timer glitch or a lucky cache state cannot set the value.

// secondFastest returns the second-smallest sample (the smallest of fewer
// than two, NaN of none).
func secondFastest(samples []float64) float64 {
	lo, lo2 := math.Inf(1), math.Inf(1)
	for _, s := range samples {
		switch {
		case s < lo:
			lo, lo2 = s, lo
		case s < lo2:
			lo2 = s
		}
	}
	switch len(samples) {
	case 0:
		return math.NaN()
	case 1:
		return lo
	}
	return lo2
}

// fastest returns the smallest sample (NaN of none).
func fastest(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	lo := samples[0]
	for _, s := range samples[1:] {
		lo = math.Min(lo, s)
	}
	return lo
}

// perPosition folds passes[k][i] — the sample of position i in pass k — to
// one value per position with pick (secondFastest for the end-to-end run,
// fastest for the 4-pass traced run). Positions whose sample is NaN in every
// pass (the step did not happen there) come out NaN.
func perPosition(passes [][]float64, pick func([]float64) float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, 0, len(passes))
	for i := range out {
		col = col[:0]
		for _, p := range passes {
			if !math.IsNaN(p[i]) {
				col = append(col, p[i])
			}
		}
		out[i] = pick(col)
	}
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of the
// non-NaN values; NaN when there are none. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quantile is the q-quantile (0 <= q <= 1) of vals, interpolated between the
// two order statistics around it, so that it does not jump with the sample
// count; NaN of none. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	lo := int(at)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
}

// mean of the non-NaN values; NaN when there are none.
func mean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// orZero maps the NaN of an empty sample to 0, the value a layer row takes
// on a workload that never reaches the layer.
func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// relDiff is |a-b| as a share of a.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Abs(a)
}
