package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExceedsControl(t *testing.T) {
	cases := []struct {
		x    float64
		want bool
	}{
		{0.5, false},
		{0.3 + 0.2, false}, // float rounding must not flip the decision
		{0.5 + 1e-12, false},
		{0.501, true},
		{0.51, true},
		{1, true},
		{0.4999, false},
	}
	for _, c := range cases {
		if got := ExceedsControl(c.x); got != c.want {
			t.Errorf("ExceedsControl(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// removeSequential mirrors ParallelRemove with plain RemoveNode calls.
func removeSequential(g *Graph, dead []bool) {
	for i, d := range dead {
		if d {
			g.RemoveNode(NodeID(i))
		}
	}
}

func TestParallelRemoveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Intn(4*n))
		dead := make([]bool, g.Cap())
		for i := range dead {
			dead[i] = rng.Float64() < 0.4
		}
		want := g.Clone()
		removeSequential(want, dead)
		for _, workers := range []int{1, 2, 3, 7} {
			got := g.Clone()
			removed := got.ParallelRemoveMetered(nil, dead, workers)
			if !Equal(want, got, 0) {
				t.Fatalf("trial %d workers %d: parallel removal differs", trial, workers)
			}
			if removed != g.NumNodes()-want.NumNodes() {
				t.Fatalf("trial %d: removed = %d, want %d", trial, removed, g.NumNodes()-want.NumNodes())
			}
			if got.NumEdges() != want.NumEdges() || got.NumNodes() != want.NumNodes() {
				t.Fatalf("trial %d: counters off: got %v want %v", trial, got, want)
			}
		}
	}
}

// contractSequential applies the R3 action v -> rep[v] one node at a time.
// The contract set forms controller chains already resolved to final
// representatives, so the order of application does not matter.
func contractSequential(g *Graph, rep []NodeID) {
	contracted := func(v NodeID) bool { return rep[v] != None && rep[v] != v }
	for i := range rep {
		v := NodeID(i)
		if !contracted(v) || !g.Alive(v) {
			continue
		}
		r := rep[v]
		type tr struct {
			to NodeID
			w  float64
		}
		var outs []tr
		g.EachOut(v, func(u NodeID, w float64) { outs = append(outs, tr{u, w}) })
		g.RemoveNode(v)
		for _, o := range outs {
			if o.to == r || contracted(o.to) {
				continue
			}
			if err := g.MergeEdge(r, o.to, o.w); err != nil {
				panic(err)
			}
		}
	}
}

func TestParallelContractMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(4*n))
		// Pick a random valid rep assignment: contracted nodes point at
		// surviving live nodes.
		rep := make([]NodeID, g.Cap())
		for i := range rep {
			rep[i] = None
		}
		var survivors []NodeID
		g.EachNode(func(v NodeID) {
			if rng.Float64() < 0.5 {
				survivors = append(survivors, v)
			}
		})
		if len(survivors) == 0 {
			continue
		}
		g.EachNode(func(v NodeID) {
			isSurvivor := false
			for _, s := range survivors {
				if s == v {
					isSurvivor = true
					break
				}
			}
			if !isSurvivor && rng.Float64() < 0.7 {
				rep[v] = survivors[rng.Intn(len(survivors))]
			}
		})
		want := g.Clone()
		contractSequential(want, rep)
		for _, workers := range []int{1, 2, 5} {
			got := g.Clone()
			got.ParallelContractMetered(nil, rep, workers)
			if !Equal(want, got, 1e-12) {
				t.Fatalf("trial %d workers %d: parallel contraction differs", trial, workers)
			}
			if got.NumEdges() != want.NumEdges() || got.NumNodes() != want.NumNodes() {
				t.Fatalf("trial %d: counters off: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestParallelContractSelfLoopDrop(t *testing.T) {
	// 0 -0.6-> 1 -0.4-> 0 : contracting 1 into 0 must drop the back edge.
	g := build(t, 2, Edge{0, 1, 0.6}, Edge{1, 0, 0.4})
	rep := []NodeID{None, 0}
	g.ParallelContractMetered(nil, rep, 2)
	if g.Alive(1) || g.NumEdges() != 0 || g.NumNodes() != 1 {
		t.Fatalf("after contraction: %v", g)
	}
}

func TestParallelContractMergesLabels(t *testing.T) {
	// Fig 3 (3): w -0.6-> v -n-> u and w -m-> u : edge labels merge to m+n.
	g := build(t, 3, Edge{0, 1, 0.6}, Edge{1, 2, 0.3}, Edge{0, 2, 0.4})
	rep := []NodeID{None, 0, None}
	g.ParallelContractMetered(nil, rep, 2)
	if w, ok := g.Label(0, 2); !ok || w != 0.7 {
		t.Fatalf("merged label = %g, %v; want 0.7", w, ok)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestParallelContractChain(t *testing.T) {
	// Chain 0 -0.9-> 1 -0.8-> 2 -0.7-> 3, with 1 and 2 contracted into 0:
	// the edge 2->3 must land on 0; intermediate edges vanish.
	g := build(t, 4, Edge{0, 1, 0.9}, Edge{1, 2, 0.8}, Edge{2, 3, 0.7})
	rep := []NodeID{None, 0, 0, None}
	g.ParallelContractMetered(nil, rep, 3)
	if w, ok := g.Label(0, 3); !ok || w != 0.7 {
		t.Fatalf("label(0,3) = %g,%v", w, ok)
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("graph = %v", g)
	}
}

func TestQuickParallelRemoveCounters(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(3*n))
		dead := make([]bool, g.Cap())
		for i := range dead {
			dead[i] = rng.Float64() < 0.3
		}
		g.ParallelRemoveMetered(nil, dead, 1+int(workers%8))
		// Recount from scratch and compare with maintained counters.
		nodes, edges := 0, 0
		for i := 0; i < g.Cap(); i++ {
			v := NodeID(i)
			if g.Alive(v) {
				nodes++
				edges += g.OutDegree(v)
			}
		}
		return nodes == g.NumNodes() && edges == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
