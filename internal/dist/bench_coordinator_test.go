package dist

import (
	"context"
	"sync"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// benchMergeInputs builds realistic coordinator merge inputs: a pre-cached
// 4-site EU cluster evaluates one cross-border query with ForcePartial, so
// the two endpoint sites return live reduced partials and the other two are
// served from their query-independent caches (the snapshot skeleton merges
// those). The query is one that no termination check decides early, so the
// merged reduction removes most of the merged graph. Returned graphs are
// owned by the caller; q is the query.
func benchMergeInputs(tb testing.TB) (skeleton *graph.Graph, live []*graph.Graph, q control.Query) {
	tb.Helper()
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 1200, InterconnectRate: 0.05, Seed: 9}).G
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		tb.Fatal(err)
	}
	q = control.Query{S: 0, T: graph.NodeID(g.Cap() - 105)}
	skeleton = graph.New(0)
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
			skeleton.Merge(pa.Reduced)
		} else {
			live = append(live, pa.Reduced)
		}
	}
	if len(live) == 0 || skeleton.NumNodes() == 0 {
		tb.Fatalf("query split unexpectedly: %d live partials, %d skeleton nodes",
			len(live), skeleton.NumNodes())
	}
	return skeleton, live, q
}

// mergeCycle is one query's merge work on the coordinator's batch path:
// materialize the merged graph from the cached-partial skeleton (CloneInto
// scratch; nil allocates), merge the live partials on top, and run the final
// reduction with X = {s, t} — which retires most of the merged graph.
func mergeCycle(tb testing.TB, skeleton *graph.Graph, live []*graph.Graph, q control.Query, x graph.NodeSet, scratch *graph.Graph) *graph.Graph {
	mg := skeleton.CloneInto(scratch)
	for _, p := range live {
		mg.Merge(p)
	}
	res, err := control.ParallelReduction(context.Background(), mg, q, x, control.Options{
		Workers: 1,
		Trust:   control.FullTrust,
	})
	if err != nil || res.Ans == control.Unknown || res.Stats.Removed == 0 {
		tb.Fatalf("merged reduction: %v after removing %d, err %v", res.Ans, res.Stats.Removed, err)
	}
	return mg
}

// BenchmarkCoordinatorMerge measures the per-query merge work of the batch
// path (see mergeCycle). "clone" is the allocating path (a fresh graph per
// query); "pooled" is the batch path (CloneInto over reused scratch, which
// the previous query's reduction left behind).
func BenchmarkCoordinatorMerge(b *testing.B) {
	skeleton, live, q := benchMergeInputs(b)
	x := graph.NewNodeSet(q.S, q.T)
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeCycle(b, skeleton, live, q, x, nil)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		scratch := mergeCycle(b, skeleton, live, q, x, graph.New(0))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch = mergeCycle(b, skeleton, live, q, x, scratch)
		}
	})
}

// TestCoordinatorMergePooledSteadyStateAllocs pins the pooled merge cycle:
// once its scratch has been through one clone → merge → reduce, the next
// cycle allocates nothing — the reduction clears the tables of the nodes it
// retires instead of dropping them, so CloneInto finds every one.
func TestCoordinatorMergePooledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops Puts at random; alloc pin does not hold")
	}
	skeleton, live, q := benchMergeInputs(t)
	x := graph.NewNodeSet(q.S, q.T)
	scratch := mergeCycle(t, skeleton, live, q, x, graph.New(0))
	allocs := testing.AllocsPerRun(20, func() {
		scratch = mergeCycle(t, skeleton, live, q, x, scratch)
	})
	if allocs != 0 {
		t.Fatalf("pooled merge cycle allocated %.1f times per run, want 0", allocs)
	}
}

// benchPartialResponse encodes one live partial answer for the decode
// benchmarks — the payload a remote site ships for a merge-path query.
func benchPartialResponse(tb testing.TB) *response {
	tb.Helper()
	_, live, _ := benchMergeInputs(tb)
	resp, err := encodePartial(&PartialAnswer{SiteID: 0, Ans: control.Unknown, Reduced: live[0]})
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
