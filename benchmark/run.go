package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"ccp"
)

// runOpts sizes one run; the defaults are the constants in spec.go, -quick
// shrinks them.
type runOpts struct {
	passes, minPasses int           // timed passes: the cap and the floor
	tracedPasses      int           // timed passes of the traced run
	setups            int           // full builds timed for setup_s
	budget            time.Duration // no new timed pass starts after this
	outDir            string
	log               io.Writer // progress and context, never the result line
}

// result is what one run of one workload reports.
type result struct {
	N, K      int // queries per pass, timed passes made
	Updates   int // updates per pass
	Attempted int // operations issued, warm-up included
	Failed    int // errors, and answers differing from the oracle
	Correct   bool
	Metrics   map[string]float64
}

// passStats is what one pass over the operation sequence observed.
type passStats struct {
	failed int
	merged int // queries the coordinator had to merge
}

// runPass issues w's operations once, in order, from one closed-loop client,
// and stores each operation's latency in ms at its position in lat. between,
// if set, is called after every operation with the operations done so far.
func runPass(ctx context.Context, c *ccp.Cluster, w *workload, lat []float64, between func(done int)) passStats {
	var ps passStats
	for i, o := range w.ops {
		var err error
		t0 := time.Now()
		switch o.Kind {
		case opQuery:
			var ans bool
			var m ccp.QueryMetrics
			ans, m, err = c.Controls(ctx, o.A, o.B)
			lat[i] = float64(time.Since(t0)) / 1e6
			if err == nil && m.DecidedBySite < 0 {
				ps.merged++
			}
			if err == nil && ans != w.expected[i] {
				err = fmt.Errorf("answered %v, oracle says %v", ans, w.expected[i])
			}
		case opAdd:
			err = c.AddStake(ctx, o.A, o.B, updateWeight)
			lat[i] = float64(time.Since(t0)) / 1e6
		case opRemove:
			err = c.RemoveStake(ctx, o.A, o.B)
			lat[i] = float64(time.Since(t0)) / 1e6
		}
		if err != nil {
			ps.failed++
		}
		if between != nil {
			between(i + 1)
		}
	}
	return ps
}

// liveHeap forces two collections (the second frees what the first's
// finalizers released) and reads the bytes of live heap objects. HeapInuse
// would add the spans' fragmentation, which moved by 3% between runs of the
// same seed; the live bytes repeat.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// buildGoroutines is how many goroutines the reference kernel runs on around
// a build: Precompute reduces every partition, as many at once as there are
// cores.
const buildGoroutines = 2

// residentReadings is how many times, evenly spaced over one pass, the live
// heap is read for resident_bytes_per_edge.
const residentReadings = 4

// measureEndToEnd is the untraced run: one timed build, one warm-up pass on
// it, the timed passes over the identical sequence from the identical state
// with the reference kernel sampled every refGap, one more pass that reads
// the resident memory, then the other timed builds.
func measureEndToEnd(ctx context.Context, w *workload, o runOpts) (*result, error) {
	res := &result{N: w.queries, Updates: w.updates, Metrics: map[string]float64{}}
	ref := newRefKernel()

	base := liveHeap()
	var setup []float64 // seconds at the reference speed
	build := func() (*deployment, error) {
		for i := 0; i < refPerBuild; i++ {
			ref.sample(buildGoroutines)
		}
		runtime.GC() // every build starts from a collected heap
		t0 := time.Now()
		d, err := deploy(ctx, w, o.outDir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setup), err)
		}
		took := time.Since(t0).Seconds()
		for i := 0; i < refPerBuild; i++ {
			ref.sample(buildGoroutines)
		}
		scale, _ := ref.take()
		setup = append(setup, scale*took)
		return d, nil
	}
	d, err := build()
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.close() // an error return left it open
		}
	}()

	lat := make([][]float64, o.passes)
	for k := range lat {
		lat[k] = make([]float64, len(w.ops))
	}
	warm := runPass(ctx, d.cluster, w, lat[0], nil)
	res.Attempted += len(w.ops)
	res.Failed += warm.failed
	fmt.Fprintf(o.log, "%s seed=%d: N=%d queries + %d updates per pass; pool %d sources x %d targets; "+
		"merged %.0f%%, decided by one site %.0f%%, oracle true %.1f%%\n",
		w.name, w.seed, w.queries, w.updates, w.owners, w.targets,
		100*float64(warm.merged)/float64(w.queries),
		100*float64(w.queries-warm.merged)/float64(w.queries), 100*w.trueShare)

	var measuredMedian, refMS []float64 // per pass: as the clock read it, and the kernel beside it
	alloc0 := totalAlloc()
	clock := time.Now()
	for k := 0; k < o.passes; k++ {
		if k >= o.minPasses && time.Since(clock) >= o.budget {
			break
		}
		ref.sample(w.liveSites)
		last := time.Now()
		ps := runPass(ctx, d.cluster, w, lat[k], func(int) {
			if time.Since(last) >= refGap {
				ref.sample(w.liveSites)
				last = time.Now()
			}
		})
		res.Failed += ps.failed
		res.Attempted += len(w.ops)
		res.K++
		measuredMedian = append(measuredMedian, median(lat[k]))
		scale, ms := ref.take()
		refMS = append(refMS, ms)
		for i := range lat[k] {
			lat[k][i] *= scale
		}
	}
	alloc := totalAlloc() - alloc0
	timed := time.Since(clock)

	// Resident memory is the live heap the cluster adds in the steady state
	// the passes leave — caches and merged snapshots filled — read several
	// times along one more pass: where the snapshot cache is smaller than the
	// workload (fanout) it fills and drops shards as the sequence goes, and
	// one reading would catch it at whatever point the seed chose.
	var resident []float64
	ps := runPass(ctx, d.cluster, w, make([]float64, len(w.ops)), func(done int) {
		if done*residentReadings%len(w.ops) < residentReadings {
			resident = append(resident, float64(liveHeap()-base))
		}
	})
	res.Failed += ps.failed
	res.Attempted += len(w.ops)

	// Set-up is timed on the measured build and on the ones after it: a run
	// that starts in a slow spell of the machine does not end in the same one.
	err = d.close()
	d = nil
	for err == nil && len(setup) < o.setups {
		var again *deployment
		if again, err = build(); err == nil {
			err = again.close()
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted += o.setups
	res.Metrics["setup_s"] = secondFastest(setup)

	// One closed-loop client: a pass takes the sum of its operations'
	// latencies, so the rate follows from the same per-position values as the
	// percentiles (the updates of update-mix included).
	pos := perPosition(lat[:res.K], secondFastest)
	queryLat := make([]float64, 0, w.queries)
	for i, op := range w.ops {
		if op.Kind == opQuery {
			queryLat = append(queryLat, pos[i])
		}
	}
	res.Metrics["query_p50_ms"] = median(queryLat)
	res.Metrics["query_p95_ms"] = percentile(queryLat, 95)
	res.Metrics["queries_per_s"] = 1e3 * float64(w.queries) / sum(pos)
	res.Metrics["alloc_bytes_per_query"] = float64(alloc) / float64(res.K*len(w.ops))
	res.Metrics["resident_bytes_per_edge"] = mean(resident) / float64(w.eu.G.NumEdges())
	for name, v := range res.Metrics {
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("%s: metric %s = %v", w.name, name, v)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(o.log, "%s seed=%d: K=%d timed passes in %.1fs, GOMAXPROCS=%d, attempted=%d failed=%d; "+
		"reference kernel %.2f ms (%.2f–%.2f over the passes; timing metrics are as at %.1f ms); a pass's median operation measured %.3f ms\n",
		w.name, w.seed, res.K, timed.Seconds(), runtime.GOMAXPROCS(0), res.Attempted, res.Failed,
		median(refMS), quantile(refMS, 0), quantile(refMS, 1), refNominalMS, median(measuredMedian))
	return res, nil
}
