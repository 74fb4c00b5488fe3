package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestSecondFastest(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{1, 1, 9}, 1},
		{[]float64{9, 8, 7, 0.001}, 7}, // one freak-fast sample does not set the value
	} {
		if got := secondFastest(tc.in); got != tc.want {
			t.Errorf("secondFastest(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(secondFastest(nil)) || !math.IsNaN(fastest(nil)) {
		t.Error("empty sample must fold to NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := median(vals); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	// p95 of 200 values is the 190th: ten samples lie beyond it.
	if got := percentile(vals, 95); got != 190 {
		t.Errorf("p95 = %v, want 190", got)
	}
	if got := percentile([]float64{math.NaN(), 4, math.NaN()}, 50); got != 4 {
		t.Errorf("NaN must be skipped, got %v", got)
	}
	if vals[0] != 200 {
		t.Error("percentile modified its input")
	}
}

func TestPerPositionSkipsMissingSamples(t *testing.T) {
	nan := math.NaN()
	got := perPosition([][]float64{{3, nan, nan}, {2, 7, nan}, {4, 5, nan}}, fastest)
	if got[0] != 2 || got[1] != 5 || !math.IsNaN(got[2]) {
		t.Errorf("perPosition = %v, want [2 5 NaN]", got)
	}
	if orZero(got[2]) != 0 {
		t.Error("orZero(NaN) != 0")
	}
}

// noisyPasses builds K passes over the true per-position latencies, slowing
// samples by factor: whole passes with probability passShare (a neighbour
// hogging the machine for a while), single samples with probability
// sampleShare (a preemption, a GC assist), and in every pass one spell of
// spellShare of the positions, starting anywhere. Noise is one-sided.
func noisyPasses(rng *rand.Rand, truth []float64, k int, passShare, sampleShare, spellShare, factor float64) [][]float64 {
	passes := make([][]float64, k)
	for p := range passes {
		slowPass := rng.Float64() < passShare
		spell := int(spellShare * float64(len(truth)))
		spellAt := rng.Intn(len(truth) - spell + 1)
		passes[p] = make([]float64, len(truth))
		for i, v := range truth {
			v *= 1 + 0.002*rng.Float64() // timer granularity
			if slowPass || rng.Float64() < sampleShare || (i >= spellAt && i < spellAt+spell) {
				v *= factor
			}
			passes[p][i] = v
		}
	}
	return passes
}

// The acceptance test of the estimators: with 40% of passes slowed 1.5x —
// and, separately, 40% of single samples, and a slow quarter in every pass —
// the per-position second-fastest of the timed passes must move p50, p95 and
// the pass-level rate by less than 2%, where the one-pass median the first
// attempt used moves by tens of percent.
func TestEstimatorsShrugOffOneSidedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := make([]float64, 200)
	for i := range truth {
		truth[i] = 6 + rng.Float64() // 6..7 ms, like xborder
		if i%12 == 0 {
			truth[i] *= 3 // a structural tail the percentile must keep: p95 lies inside it
		}
	}
	wantP50, wantP95 := median(truth), percentile(truth, 95)
	cases := []struct {
		name                               string
		passShare, sampleShare, spellShare float64
	}{
		{"slow passes", 0.4, 0, 0},
		{"slow samples", 0, 0.4, 0},
		{"both", 0.3, 0.2, 0},
		{"slow spells", 0, 0, 0.25},
	}
	for _, tc := range cases {
		worstNaive := 0.0
		for trial := 0; trial < 50; trial++ {
			passes := noisyPasses(rng, truth, timedPasses, tc.passShare, tc.sampleShare, tc.spellShare, 1.5)
			pos := perPosition(passes, secondFastest)
			if d := relDiff(wantP50, median(pos)); d > 0.02 {
				t.Fatalf("%s: p50 moved %.1f%%", tc.name, 100*d)
			}
			if d := relDiff(wantP95, percentile(pos, 95)); d > 0.02 {
				t.Fatalf("%s: p95 moved %.1f%%", tc.name, 100*d)
			}
			// One closed-loop client: a pass takes the sum of its positions.
			if d := relDiff(sum(truth), sum(pos)); d > 0.02 {
				t.Fatalf("%s: pass made of second-fastest positions moved %.1f%%", tc.name, 100*d)
			}
			worstNaive = math.Max(worstNaive, relDiff(wantP50, median(passes[0])))
		}
		if tc.passShare > 0 && worstNaive < 0.2 {
			t.Errorf("%s: the noise never moved a one-pass median by 20%% (worst %.1f%%): the test injects too little", tc.name, 100*worstNaive)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.1, 14}, {0.5, 30}, {1, 50}} {
		if got := quantile(vals, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if vals[0] != 50 || !math.IsNaN(quantile(nil, 0.1)) {
		t.Error("quantile modified its input, or folded no samples to a number")
	}
}

func TestRefKernelSamplesAndScales(t *testing.T) {
	k := newRefKernel()
	for i := 0; i < 3; i++ {
		k.sample(2)
	}
	if len(k.samples) != 3 || !(k.samples[0] > 0) {
		t.Fatalf("samples = %v", k.samples)
	}
	// Both goroutines did the whole kernel: every stake was found in its copy.
	if want := 0.1 * refNodes * refDegree; math.Abs(k.scratch[0].sum-want) > 1e-6 || math.Abs(k.scratch[1].sum-want) > 1e-6 {
		t.Errorf("kernel found stakes worth %v and %v, want %v", k.scratch[0].sum, k.scratch[1].sum, want)
	}
	// A machine twice as slow as the reference halves every measured time,
	// and one preempted sample in ten does not show.
	k.samples = k.samples[:0]
	for i := 0; i < 10; i++ {
		k.samples = append(k.samples, 2*refNominalMS)
	}
	k.samples[3] *= 5
	if scale, ms := k.take(); scale != 0.5 || ms != 2*refNominalMS || len(k.samples) != 0 {
		t.Errorf("take = %v, %v with %d samples kept; want 0.5, %v, 0", scale, ms, len(k.samples), 2*refNominalMS)
	}
}
