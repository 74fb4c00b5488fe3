package dist

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
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
// builds the reachability sets the slices are cut from, which a site does
// once, in NewSite; Apply repairs them after that (see
// partition.BenchmarkReachAfterStake).
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
// invalidate moves the epoch, and Precompute copies the core, reduces it
// and keeps its CCPG1 bytes. The reachability sets the core is cut from
// are current already: Apply repairs them with the update.
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

// BenchmarkAnswerAfterUpdate compares the first answer after a stake update
// with a steady answer, on an in-process cluster of the xborder graph's four
// sites with the cache on. Each op applies one update of the benchmark's
// update-mix kind (a random stake of 0.1, three in four across a border,
// divested by the op after it), then times one answer (after-us) and the
// one after it (steady-us), of queries from a member with a stake across a
// border to an in-node of another site. after/steady is their ratio: what
// an update leaves to the query that follows it, the site's cache rebuild
// included.
func BenchmarkAnswerAfterUpdate(b *testing.B) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 8000, InterconnectRate: 0.01,
		AvgOutDegree: 3, Seed: 2021})
	sites := inlineSites(b, eu)
	coord := NewCoordinator(localClients(sites, false), Options{UseCache: true, Workers: 1})
	ctx := context.Background()
	var owners, targets []graph.NodeID
	for _, s := range sites {
		for _, v := range s.MemberIDs() {
			cross := false
			s.part.Local.EachOut(v, func(u graph.NodeID, _ float64) { cross = cross || s.part.Virtual.Has(u) })
			if cross {
				owners = append(owners, v)
			}
			if s.part.InNodes.Has(v) {
				targets = append(targets, v)
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	var qs []control.Query // an odd count, so each query takes both roles in turn
	for len(qs) < 15 {
		q := control.Query{S: owners[rng.Intn(len(owners))], T: targets[rng.Intn(len(targets))]}
		if eu.Country[q.S] != eu.Country[q.T] {
			qs = append(qs, q)
		}
	}
	var ups []StakeUpdate
	for len(ups) < 16 {
		u, v := graph.NodeID(rng.Intn(eu.G.Cap())), graph.NodeID(rng.Intn(eu.G.Cap()))
		domestic := len(ups)%8 == 6
		if u != v && (eu.Country[u] == eu.Country[v]) == domestic &&
			!eu.G.HasEdge(u, v) && !eu.G.HasEdge(v, u) && eu.G.InSum(v) <= 0.8 {
			ups = append(ups, StakeUpdate{Owner: u, Owned: v, Weight: 0.1}, StakeUpdate{Owner: u, Owned: v, Remove: true})
		}
	}
	var after, steady time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.ApplyUpdate(ctx, ups[i%len(ups)]); err != nil {
			b.Fatal(err)
		}
		for j, d := range []*time.Duration{&after, &steady} {
			q := qs[(2*i+j)%len(qs)]
			start := time.Now()
			if _, _, err := coord.Answer(ctx, q); err != nil {
				b.Fatalf("%v: %v", q, err)
			}
			*d += time.Since(start)
		}
	}
	b.ReportMetric(float64(after.Microseconds())/float64(b.N), "after-us")
	b.ReportMetric(float64(steady.Microseconds())/float64(b.N), "steady-us")
	b.ReportMetric(float64(after)/float64(steady), "after/steady")
}

// BenchmarkRecover times a durable site's recovery from a WAL of 10⁴ stake
// records on partition 2 of the xborder graph (partition's
// BenchmarkReachAfterStake partition), drawn as the update-mix workload
// draws its updates: a member takes a stake in a company that holds at most
// 0.6 already, three in four across the border, each followed by its
// divestment. One op is OpenDurableSite: load the seed partition, replay
// the log into it, and build the reachability sets.
func BenchmarkRecover(b *testing.B) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 8000, InterconnectRate: 0.01,
		AvgOutDegree: 3, Seed: 2021})
	pi, err := partition.Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		b.Fatal(err)
	}
	p := pi.Parts[2]
	var members []graph.NodeID
	for v, c := range eu.Country {
		if c == p.ID {
			members = append(members, graph.NodeID(v))
		}
	}
	rng := rand.New(rand.NewSource(64))
	var recs []store.Record
	for len(recs) < 10_000 {
		u, v := members[rng.Intn(len(members))], graph.NodeID(rng.Intn(eu.G.Cap()))
		domestic := len(recs)%8 == 6
		if u != v && (eu.Country[v] == p.ID) == domestic && !eu.G.HasEdge(u, v) && !eu.G.HasEdge(v, u) && eu.G.InSum(v) <= 0.6 {
			rec := store.Record{Kind: store.KindStake, Owner: int32(u), Owned: int32(v), Weight: 0.2}
			recs = append(recs, rec)
			rec.Remove = true
			recs = append(recs, rec)
		}
	}
	dir := b.TempDir()
	opts := store.Options{NoSync: true, CheckpointEvery: -1, CheckpointBytes: -1}
	seed := p.Snapshot()
	s, err := OpenDurableSite(dir, func() (*partition.Partition, error) { return seed, nil }, 1, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if res, err := s.Apply(rec); err != nil || !res.Changed {
			b.Fatalf("%+v: %+v, %v", rec, res, err)
		}
	}
	if err := s.store.Kill(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seed := p.Snapshot()
		b.StartTimer()
		r, err := OpenDurableSite(dir, func() (*partition.Partition, error) { return seed, nil }, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st, _ := r.StoreStats(); st.RecoveredRecords != len(recs) {
			b.Fatalf("replayed %d records, want %d", st.RecoveredRecords, len(recs))
		}
		if err := r.store.Kill(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
