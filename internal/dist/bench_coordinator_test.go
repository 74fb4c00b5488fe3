package dist

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// mergeInputs are one query's coordinator merge inputs: the dense copies of
// the cached partials, as the coordinator keeps them, and the live partials
// in global ids, as they arrive from their sites.
type mergeInputs struct {
	copies []denseGraph
	live   []*graph.Graph
	q      control.Query
}

// benchMergeInputs builds realistic coordinator merge inputs: a pre-cached
// 4-site EU cluster evaluates one cross-border query with ForcePartial, so
// the two endpoint sites return live reduced partials and the other two are
// served from their query-independent caches. The query is one that no
// termination check decides early, so the merged reduction removes most of
// the merged graph.
func benchMergeInputs(tb testing.TB) mergeInputs {
	tb.Helper()
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 1200, InterconnectRate: 0.05, Seed: 9}).G
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return clusterMergeInputs(tb, pi, control.Query{S: 0, T: graph.NodeID(g.Cap() - 105)})
}

// clusterMergeInputs evaluates q at a pre-cached site per partition of pi and
// gathers the merge inputs the coordinator would see.
func clusterMergeInputs(tb testing.TB, pi *partition.Partitioning, q control.Query) mergeInputs {
	tb.Helper()
	in := mergeInputs{q: q}
	for _, p := range pi.Parts {
		s := NewSite(p, 1)
		if _, err := s.Precompute(context.Background()); err != nil {
			tb.Fatal(err)
		}
		pa, err := s.Evaluate(context.Background(), q, EvalOptions{UseCache: true, ForcePartial: true})
		if err != nil {
			tb.Fatal(err)
		}
		if pa.Reduced == nil {
			tb.Fatalf("site %d returned no partial", s.ID())
		}
		if pa.FromCache {
			in.copies = append(in.copies, compact(pa.Reduced))
		} else {
			in.live = append(in.live, pa.Reduced.Clone())
			pa.Release()
		}
	}
	if len(in.live) == 0 || len(in.copies) == 0 {
		tb.Fatalf("query split unexpectedly: %d live partials, %d cached copies", len(in.live), len(in.copies))
	}
	return in
}

// mergeCycle is one query's merge work on the coordinator's batch path:
// list the live partials' nodes, renumber the cached copies and the live
// partials over their union into the scratch's merged graph, and run the
// final reduction with X = {s, t} — which retires most of the merged graph.
func mergeCycle(tb testing.TB, in mergeInputs, ms *mergeScratch) *graph.Graph {
	ms.parts, ms.nodes = append(ms.parts[:0], in.copies...), ms.nodes[:0]
	for _, p := range in.live {
		var part denseGraph
		part, ms.nodes = sparsePart(p, ms.nodes)
		ms.parts = append(ms.parts, part)
	}
	mergeInto(&ms.mg, ms.parts)
	res, err := ms.reduce(context.Background(), in.q, control.Options{Workers: 1, Trust: control.FullTrust})
	if err != nil || res.Ans == control.Unknown || res.Stats.Removed == 0 {
		tb.Fatalf("merged reduction: %v after removing %d, err %v", res.Ans, res.Stats.Removed, err)
	}
	return ms.mg.g
}

// BenchmarkCoordinatorMerge measures the per-query merge work of the batch
// path (see mergeCycle). "fresh" allocates new scratch per query; "pooled" is
// the batch path, renumbering into the scratch the previous query's
// reduction left behind.
func BenchmarkCoordinatorMerge(b *testing.B) {
	in := benchMergeInputs(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeCycle(b, in, newMergeScratch())
		}
	})
	b.Run("pooled", func(b *testing.B) {
		ms := newMergeScratch()
		mergeCycle(b, in, ms)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mergeCycle(b, in, ms)
		}
	})
}

// TestCoordinatorMergePooledSteadyStateAllocs pins the pooled merge cycle:
// once its scratch has been through one merge → reduce, the next cycle
// allocates nothing — the id table keeps its capacity, ResetTo keeps the edge
// maps, and the reduction clears the tables of the nodes it retires instead
// of dropping them.
func TestCoordinatorMergePooledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops Puts at random; alloc pin does not hold")
	}
	in := benchMergeInputs(t)
	ms := newMergeScratch()
	mergeCycle(t, in, ms)
	allocs := testing.AllocsPerRun(20, func() { mergeCycle(t, in, ms) })
	if allocs != 0 {
		t.Fatalf("pooled merge cycle allocated %.1f times per run, want 0", allocs)
	}
}

// TestCoordinatorMergeWorkFollowsBoundary relabels one cluster's graph into
// an id space 32 times larger — the same companies and stakes, company v
// renamed 32v — and requires the coordinator's merge to be the same on both:
// the same merged Cap, the same allocations and allocated bytes per fresh
// cycle, and none once pooled. Merge work follows the nodes the partials
// hold, not the id space they are numbered in.
func TestCoordinatorMergeWorkFollowsBoundary(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops Puts at random; alloc pin does not hold")
	}
	const spread = 32
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 1200, InterconnectRate: 0.05, Seed: 9}).G
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	wide := graph.New(spread * g.Cap())
	assign := make([]int, wide.Cap())
	for v := 0; v < wide.Cap(); v++ {
		if v%spread != 0 || !g.Alive(graph.NodeID(v/spread)) {
			wide.RemoveNode(graph.NodeID(v))
		}
	}
	for _, e := range g.Edges() {
		if err := wide.AddEdge(spread*e.From, spread*e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for v, a := range pi.Assign {
		assign[spread*v] = a
	}
	wpi, err := partition.Split(wide, assign, len(pi.Parts))
	if err != nil {
		t.Fatal(err)
	}
	q := control.Query{S: 0, T: graph.NodeID(g.Cap() - 105)}
	type cost struct {
		cap           int
		allocs, bytes float64
		pooledAllocs  float64
	}
	measure := func(in mergeInputs) cost {
		var c cost
		c.cap = mergeCycle(t, in, newMergeScratch()).Cap()
		c.allocs = testing.AllocsPerRun(10, func() { mergeCycle(t, in, newMergeScratch()) })
		// The least of five batches: other goroutines can only add bytes.
		const runs = 10
		for batch := 0; batch < 5; batch++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				mergeCycle(t, in, newMergeScratch())
			}
			runtime.ReadMemStats(&after)
			if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; batch == 0 || b < c.bytes {
				c.bytes = b
			}
		}
		ms := newMergeScratch()
		mergeCycle(t, in, ms)
		c.pooledAllocs = testing.AllocsPerRun(10, func() { mergeCycle(t, in, ms) })
		return c
	}
	narrow := measure(clusterMergeInputs(t, pi, q))
	spreadOut := measure(clusterMergeInputs(t, wpi, control.Query{S: spread * q.S, T: spread * q.T}))
	if narrow != spreadOut || narrow.pooledAllocs != 0 {
		t.Fatalf("merge cost follows the id space: ids 0..%d %+v, ids spread %dx %+v",
			g.Cap()-1, narrow, spread, spreadOut)
	}
	t.Logf("merged Cap %d of %d ids; fresh cycle %.0f allocs, %.0f B", narrow.cap, g.Cap(), narrow.allocs, narrow.bytes)
	if narrow.cap >= g.Cap()/10 {
		t.Fatalf("merged Cap %d of a %d-id graph: the merge is not dense", narrow.cap, g.Cap())
	}
}

// benchPartialResponse encodes one live partial answer for the decode
// benchmarks — the payload a remote site ships for a merge-path query.
func benchPartialResponse(tb testing.TB) *response {
	tb.Helper()
	in := benchMergeInputs(tb)
	resp, err := encodePartial(&PartialAnswer{SiteID: 0, Ans: control.Unknown, Reduced: in.live[0]})
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// BenchmarkPartialDecode measures turning a wire response back into a
// partial answer. "fresh" allocates a graph per decode (the pre-pool path);
// "pooled" decodes into recycled scratch and releases it, the steady state
// of the concurrent batch path.
func BenchmarkPartialDecode(b *testing.B) {
	resp := benchPartialResponse(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(resp.GraphBytes)))
		for i := 0; i < b.N; i++ {
			if _, err := decodePartial(resp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var pool sync.Pool
		b.ReportAllocs()
		b.SetBytes(int64(len(resp.GraphBytes)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa, err := decodePartial(resp, &pool)
			if err != nil {
				b.Fatal(err)
			}
			pa.Release()
		}
	})
}

// TestPartialDecodePooledSteadyStateAllocs pins the copy-free decode: once
// the pool is warm, decoding a partial answer allocates only the
// PartialAnswer header itself — the graph payload lands in recycled scratch.
func TestPartialDecodePooledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops Puts at random; alloc pin does not hold")
	}
	resp := benchPartialResponse(t)
	var pool sync.Pool
	// Warm the pool.
	pa, err := decodePartial(resp, &pool)
	if err != nil {
		t.Fatal(err)
	}
	pa.Release()
	allocs := testing.AllocsPerRun(50, func() {
		pa, err := decodePartial(resp, &pool)
		if err != nil {
			panic(err)
		}
		pa.Release()
	})
	if allocs > 1 {
		t.Fatalf("pooled decodePartial allocated %.1f times per run, want <= 1 (the PartialAnswer header)", allocs)
	}
}
