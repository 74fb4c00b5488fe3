package partition

import (
	"math/rand"
	"slices"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// refSlice is Slice's definition computed the plain way: one unclipped BFS
// forward from V^in ∪ {s} and one backward from V^virt ∪ {t}, intersected.
func refSlice(p *Partition, s, t graph.NodeID) graph.NodeSet {
	flood := func(from graph.NodeSet, extra graph.NodeID, back bool) graph.NodeSet {
		seen := graph.NewNodeSet()
		var queue []graph.NodeID
		visit := func(v graph.NodeID, _ float64) {
			if p.Local.Alive(v) && !seen.Has(v) {
				seen.Add(v)
				queue = append(queue, v)
			}
		}
		for v := range from {
			visit(v, 0)
		}
		visit(extra, 0)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if back {
				p.Local.EachIn(v, visit)
			} else {
				p.Local.EachOut(v, visit)
			}
		}
		return seen
	}
	fwd, bwd := flood(p.InNodes, s, false), flood(p.Virtual, t, true)
	keep := graph.NewNodeSet()
	for v := range fwd {
		if bwd.Has(v) {
			keep.Add(v)
		}
	}
	return keep
}

// sliceEndpoints draws query endpoints for partition p: members, virtual
// nodes, in-nodes, members of other partitions (dead in Local), and ids
// outside every id space.
func sliceEndpoints(p *Partition, n int, rng *rand.Rand) []graph.NodeID {
	pick := func(set graph.NodeSet) graph.NodeID {
		if i := rng.Intn(len(set) + 1); i < len(set) {
			ids := make([]graph.NodeID, 0, len(set))
			for v := range set {
				ids = append(ids, v)
			}
			slices.Sort(ids)
			return ids[i]
		}
		return graph.NodeID(rng.Intn(n))
	}
	var ids []graph.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, pick(p.Members), pick(p.Virtual), pick(p.InNodes))
	}
	return append(ids, graph.NodeID(rng.Intn(n)), -1, graph.NodeID(n), graph.NodeID(n+7))
}

// TestSliceMatchesDefinition compares Slice, on per-site Reach sets, with
// refSlice over random graphs and random assignments, for every site and
// endpoints of every kind. One Reach and one scratch serve every site, so
// their reuse across id spaces of different sizes is covered too, and a
// scratch near its generation limit wraps mid-run.
func TestSliceMatchesDefinition(t *testing.T) {
	var r Reach
	var sc SliceScratch
	checked, kept := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		g := gen.Random(n, n*(1+rng.Intn(3)), seed)
		if seed%3 == 0 {
			g = gen.ScaleFree(gen.ScaleFreeConfig{Nodes: n, AvgOutDegree: 2, Seed: seed})
		}
		k := 1 + rng.Intn(5)
		assign := make([]int, g.Cap())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		pi, err := Split(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 30 {
			sc.gen = 1<<(32-markBits) - 3
		}
		for _, p := range pi.Parts {
			p.BuildReach(&r)
			ends := sliceEndpoints(p, g.Cap(), rng)
			for _, s := range ends {
				for _, tt := range ends {
					got := p.Slice(&r, s, tt, &sc)
					want := refSlice(p, s, tt)
					seen := graph.NewNodeSet()
					for _, v := range got {
						if seen.Has(v) || !want.Has(v) {
							t.Fatalf("seed %d site %d slice(%d,%d): %d listed twice or outside %v", seed, p.ID, s, tt, v, want)
						}
						seen.Add(v)
					}
					if len(seen) != len(want) {
						t.Fatalf("seed %d site %d slice(%d,%d) = %v, want %v", seed, p.ID, s, tt, got, want)
					}
					checked++
					kept += len(got)
				}
			}
		}
	}
	t.Logf("%d slices checked, %d nodes kept", checked, kept)
}
