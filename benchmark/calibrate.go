package main

import (
	"math/rand"
	"sync"
	"time"
)

// This VM shares its host. The hypervisor steals 0–25% of the two cores for
// tens of seconds to minutes at a time, and while it does the neighbours also
// hold the caches and the sibling hyperthreads: every sample of a run taken
// in such a stretch is 30–60% slow, its fastest ones too, so no estimator
// inside a run can take the stretch out (ten runs of one workload spread
// their measured query_p50_ms by 13–46%). What can is measuring the machine
// beside the program. A refKernel is a fixed piece of work of the program's
// own kind — the adjacency maps of a graph the size of one partition copied
// into reused maps and looked up again, on as many goroutines as sites work
// at once — that the run repeats every refGap of a timed pass and around
// every build. Each pass's latencies are then read against the lower decile
// of that pass's reference samples: they are reported as they would be on a
// machine on which the kernel takes refNominalMS.
//
// Chosen on 60 recorded runs (15 seeds of each workload, every sample kept)
// against a 64 MB pointer chase, a two-thread arithmetic loop, and the same
// kernel at a quarter of the size, each as a per-run or a per-pass factor and
// at several quantiles: per pass at the lower decile spread the timing metrics
// by 3–10% (mean 6%) where the measured ones spread by 8–27% (mean 16%); the
// first version's pointer chase left 5–25% in a rough hour. See README.md.
const (
	refNodes     = 8000                  // companies of the kernel's graph: one xborder partition
	refDegree    = 3                     // stakes per company
	refGap       = 50 * time.Millisecond // a timed pass samples the kernel this often, ~10% of its time
	refPerBuild  = 3                     // samples before and again after every timed build
	refNominalMS = 4.0                   // what the kernel takes on this VM when it is calm
	refSeed      = 2021
)

// refKernel holds the kernel's graph — per company a map of the stakes it
// holds and one of those held in it, as graph.Graph does — and one scratch
// copy per goroutine. Keys and values hold no pointers: the collector does not
// scan them and the kernel allocates nothing once the scratch maps have grown.
type refKernel struct {
	out, in []map[uint32]float64
	scratch [2]refScratch // one per goroutine
	samples []float64     // ms, since the last take
}

type refScratch struct {
	out, in []map[uint32]float64
	sum     float64 // the stakes the last run found
}

func newRefKernel() *refKernel {
	empty := func() []map[uint32]float64 {
		ms := make([]map[uint32]float64, refNodes)
		for v := range ms {
			ms[v] = map[uint32]float64{}
		}
		return ms
	}
	k := &refKernel{out: empty(), in: empty()}
	rng := rand.New(rand.NewSource(refSeed))
	for v := uint32(0); v < refNodes; v++ {
		for len(k.out[v]) < refDegree {
			if u := uint32(rng.Intn(refNodes)); u != v {
				k.out[v][u], k.in[u][v] = 0.1, 0.1
			}
		}
	}
	for c := range k.scratch {
		k.scratch[c].out, k.scratch[c].in = empty(), empty()
		k.run(c) // grow the scratch maps
	}
	return k
}

// run copies the graph into scratch copy c and then finds every stake of the
// in-maps in the copied out-maps.
func (k *refKernel) run(c int) {
	out, in := k.scratch[c].out, k.scratch[c].in
	for v := range k.out {
		clear(out[v])
		for u, w := range k.out[v] {
			out[v][u] = w
		}
		clear(in[v])
		for u, w := range k.in[v] {
			in[v][u] = w
		}
	}
	sum := 0.0
	for v := range in {
		for u := range in[v] {
			sum += out[u][uint32(v)]
		}
	}
	k.scratch[c].sum = sum
}

// sample times one run of the kernel on one goroutine, or on two at once: as
// many as the work it is sampled beside keeps busy. A core taken away delays
// work on two goroutines more than work on one.
func (k *refKernel) sample(goroutines int) {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 1; c < goroutines; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.run(c)
		}()
	}
	k.run(0)
	wg.Wait()
	k.samples = append(k.samples, float64(time.Since(t0))/1e6)
}

// take returns the factor that scales a time measured while the samples since
// the last take were made to the reference speed — below 1 when the machine
// was slower than that — and the kernel's reading behind it, and forgets the
// samples. The reading is their lower decile: a preemption only ever slows a
// sample, and the latencies it scales are themselves folded to their
// second-fastest of a dozen.
func (k *refKernel) take() (scale, ms float64) {
	ms = quantile(k.samples, 0.1)
	k.samples = k.samples[:0]
	return refNominalMS / ms, ms
}
