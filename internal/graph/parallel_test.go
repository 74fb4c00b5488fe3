package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/par"
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

// eachMode runs fn under both application modes of the batch mutators:
// inline (one worker, nil Meter) and sharded (any other combination), over
// workers {1, 2, 3, 7} × Meter nil/non-nil.
func eachMode(fn func(mode string, m *par.Meter, workers int)) {
	for _, workers := range []int{1, 2, 3, 7} {
		fn(fmt.Sprintf("workers=%d", workers), nil, workers)
		fn(fmt.Sprintf("workers=%d+meter", workers), par.NewMeter(), workers)
	}
}

// victimsOf lists the marked ids in ascending order.
func victimsOf(marked []bool) []NodeID {
	var vs []NodeID
	for i, d := range marked {
		if d {
			vs = append(vs, NodeID(i))
		}
	}
	return vs
}

// requireBatchInvariants checks what every batch call owes its caller: the
// cached aggregates match the adjacency, and every surviving neighbor of a
// retired victim in orig (a survivor whose adjacency changed) is in the
// touched set.
func requireBatchInvariants(t *testing.T, label string, orig, got *Graph, victims []NodeID, dies func(NodeID) bool, touched [][]NodeID) {
	t.Helper()
	if err := checkAggregates(got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	in := make(map[NodeID]bool)
	for _, shard := range touched {
		for _, v := range shard {
			in[v] = true
		}
	}
	for _, v := range victims {
		for _, adj := range []map[NodeID]float64{orig.in[v], orig.out[v]} {
			for u := range adj {
				if !dies(u) && !in[u] {
					t.Fatalf("%s: neighbor %d of retired %d missing from the touched set", label, u, v)
				}
			}
		}
	}
}

// removeSequential is the RemoveNode oracle of RemoveBatchMetered.
func removeSequential(g *Graph, dead []bool) {
	for i, d := range dead {
		if d {
			g.RemoveNode(NodeID(i))
		}
	}
}

func TestParallelRemoveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var branch [2]int // trials taking the emission / mass-removal branch
	for trial := 0; trial < 45; trial++ {
		n := 2 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Intn(4*n))
		p := []float64{0.2, 0.4, 0.75}[trial%3]
		dead := make([]bool, g.Cap())
		for i := range dead {
			dead[i] = g.Alive(NodeID(i)) && rng.Float64() < p
		}
		victims := victimsOf(dead)
		mass := 2*len(victims) >= g.NumNodes()
		if mass {
			branch[1]++
		} else {
			branch[0]++
		}
		want := g.Clone()
		removeSequential(want, dead)
		var sc BatchScratch
		eachMode(func(mode string, m *par.Meter, workers int) {
			label := fmt.Sprintf("trial %d %s mass=%v", trial, mode, mass)
			got := g.Clone()
			removed, touched := got.RemoveBatchMetered(m, victims, dead, workers, &sc)
			if !Equal(want, got, 0) {
				t.Fatalf("%s: batch removal differs from RemoveNode", label)
			}
			if removed != len(victims) {
				t.Fatalf("%s: removed = %d, want %d", label, removed, len(victims))
			}
			requireBatchInvariants(t, label, g, got, victims, func(u NodeID) bool { return dead[u] }, touched)
		})
	}
	if branch[0] == 0 || branch[1] == 0 {
		t.Fatalf("branches hit (emission, mass removal) = %v; both must be exercised", branch)
	}
}

// contractSequential applies the R3 action v -> rep[v] one node at a time
// with RemoveNode and MergeEdge — the oracle of ContractBatchMetered. The
// contract set forms controller chains already resolved to final
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

// requireContract runs ContractBatchMetered on a clone of g in every mode
// and compares it with the sequential oracle.
func requireContract(t *testing.T, label string, g *Graph, rep []NodeID) *Graph {
	t.Helper()
	contracted := func(v NodeID) bool { return rep[v] != None && rep[v] != v }
	var victims []NodeID
	for i := range rep {
		if v := NodeID(i); contracted(v) && g.Alive(v) {
			victims = append(victims, v)
		}
	}
	want := g.Clone()
	contractSequential(want, rep)
	var sc BatchScratch
	eachMode(func(mode string, m *par.Meter, workers int) {
		label := label + " " + mode
		got := g.Clone()
		n, touched := got.ContractBatchMetered(m, victims, rep, workers, &sc)
		if !Equal(want, got, 1e-12) {
			t.Fatalf("%s: batch contraction differs from RemoveNode+MergeEdge", label)
		}
		if n != len(victims) {
			t.Fatalf("%s: contracted = %d, want %d", label, n, len(victims))
		}
		requireBatchInvariants(t, label, g, got, victims, contracted, touched)
	})
	return want
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
		isSurvivor := make([]bool, g.Cap())
		for _, s := range survivors {
			isSurvivor[s] = true
		}
		g.EachNode(func(v NodeID) {
			if !isSurvivor[v] && rng.Float64() < 0.7 {
				rep[v] = survivors[rng.Intn(len(survivors))]
			}
		})
		requireContract(t, fmt.Sprintf("trial %d", trial), g, rep)
	}
}

func TestParallelContractSelfLoopDrop(t *testing.T) {
	// 0 -0.6-> 1 -0.4-> 0 : contracting 1 into 0 must drop the back edge.
	g := requireContract(t, "self loop", build(t, 2, Edge{0, 1, 0.6}, Edge{1, 0, 0.4}), []NodeID{None, 0})
	if g.Alive(1) || g.NumEdges() != 0 || g.NumNodes() != 1 {
		t.Fatalf("after contraction: %v", g)
	}
}

func TestParallelContractMergesLabels(t *testing.T) {
	// Fig 3 (3): w -0.6-> v -n-> u and w -m-> u : edge labels merge to m+n.
	g := requireContract(t, "merge", build(t, 3, Edge{0, 1, 0.6}, Edge{1, 2, 0.3}, Edge{0, 2, 0.4}), []NodeID{None, 0, None})
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
	g := requireContract(t, "chain", build(t, 4, Edge{0, 1, 0.9}, Edge{1, 2, 0.8}, Edge{2, 3, 0.7}), []NodeID{None, 0, 0, None})
	if w, ok := g.Label(0, 3); !ok || w != 0.7 {
		t.Fatalf("label(0,3) = %g,%v", w, ok)
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("graph = %v", g)
	}
}

func TestQuickParallelRemoveCounters(t *testing.T) {
	f := func(seed int64, workers uint8, metered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(3*n))
		dead := make([]bool, g.Cap())
		for i := range dead {
			dead[i] = g.Alive(NodeID(i)) && rng.Float64() < 0.3+0.4*float64(seed&1)
		}
		var m *par.Meter
		if metered {
			m = par.NewMeter()
		}
		g.RemoveBatchMetered(m, victimsOf(dead), dead, 1+int(workers%8), nil)
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
