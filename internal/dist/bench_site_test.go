package dist

import (
	"context"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// BenchmarkLiveEvaluate measures one live site evaluation on the graph shape
// of the benchmark's xborder workload (gen.EU, 4 countries of 8 000
// companies, out-degree 3, 1% border companies, seed 2021), at site 0, over
// queries the site leaves undecided, in the two roles a site has in a
// cross-border query: the home site of t (a foreign source, t an in-node)
// and of s (s a member with a stake across the border, t a foreign
// company). "slice" copies and reduces the query's slice, as a live
// evaluation does; "partition" copies and reduces the whole partition, as
// one with ForcePartial does. nodes/op is the size of the copy. "reach"
// rebuilds the per-epoch reachability sets the slices are cut from, which a
// site does once per epoch it serves live queries at.
func BenchmarkLiveEvaluate(b *testing.B) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 8000, InterconnectRate: 0.01,
		AvgOutDegree: 3, Seed: 2021})
	pi, err := partition.Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		b.Fatal(err)
	}
	p := pi.Parts[0]
	s := NewSite(p, 1)
	ctx := context.Background()
	foreign := graph.NodeID(eu.G.Cap() - 1)
	var candidates []control.Query
	for v := graph.NodeID(0); int(v) < p.Local.Cap(); v++ {
		switch {
		case p.InNodes.Has(v):
			candidates = append(candidates, control.Query{S: foreign, T: v})
		case p.Members.Has(v):
			cross := false
			p.Local.EachOut(v, func(u graph.NodeID, _ float64) { cross = cross || p.Virtual.Has(u) })
			if cross {
				candidates = append(candidates, control.Query{S: v, T: foreign})
			}
		}
	}
	var qs []control.Query
	for _, q := range candidates {
		if pa, err := s.Evaluate(ctx, q, EvalOptions{}); err == nil && pa.Reduced != nil {
			qs = append(qs, q)
			pa.Release()
		}
	}
	if len(qs) == 0 {
		b.Fatal("no undecided query")
	}
	var r partition.Reach
	var sc partition.SliceScratch
	p.BuildReach(&r)
	kept := 0
	for _, q := range qs {
		kept += len(p.Slice(&r, q.S, q.T, &sc))
	}
	b.Run("reach", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.BuildReach(&r)
		}
	})
	for _, v := range []struct {
		name  string
		opts  EvalOptions
		nodes float64
	}{
		{"slice", EvalOptions{}, float64(kept) / float64(len(qs))},
		{"partition", EvalOptions{ForcePartial: true}, float64(p.Local.NumNodes())},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pa, err := s.Evaluate(ctx, qs[i%len(qs)], v.opts)
				if err != nil || pa.Reduced == nil {
					b.Fatalf("%v: %+v, %v", qs[i%len(qs)], pa, err)
				}
				pa.Release()
			}
			b.ReportMetric(v.nodes, "nodes/op")
		})
	}
}

// BenchmarkPrecompute measures one rebuild of a site's query-independent
// cache on the same graph and site as BenchmarkLiveEvaluate, as the first
// cached query after an update pays it. "core" is the site's own rebuild:
// invalidate moves the epoch, and Precompute rebuilds the reachability
// sets, copies the core, reduces it and keeps its CCPG1 bytes.
// "partition" copies the whole partition into reused scratch and reduces it
// with the same exclusion set and options, then keeps a compact clone, as a
// cache build did before it was cut to the core; it is a test-side
// reference, not a production path. nodes/op is the size of the copy.
func BenchmarkPrecompute(b *testing.B) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 8000, InterconnectRate: 0.01,
		AvgOutDegree: 3, Seed: 2021})
	pi, err := partition.Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		b.Fatal(err)
	}
	p := pi.Parts[0]
	ctx := context.Background()
	b.Run("core", func(b *testing.B) {
		s := NewSite(p, 1)
		var r partition.Reach
		var sc partition.SliceScratch
		p.BuildReach(&r)
		nodes := len(p.Slice(&r, graph.None, graph.None, &sc))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invalidate(s)
			if _, err := s.Precompute(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nodes), "nodes/op")
	})
	b.Run("partition", func(b *testing.B) {
		var scratch *graph.Graph
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = p.Local.CloneInto(scratch)
			_, err := control.ParallelReduction(ctx, scratch, control.Query{S: graph.None, T: graph.None},
				p.Boundary(), control.Options{Workers: 1, DisableTermination: true})
			if err != nil {
				b.Fatal(err)
			}
			_ = scratch.Clone()
		}
		b.ReportMetric(float64(p.Local.NumNodes()), "nodes/op")
	})
}
