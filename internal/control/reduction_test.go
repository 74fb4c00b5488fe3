package control

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestApplyR3Fig3Examples(t *testing.T) {
	// Figure 3 (1): w -0.6-> v -0.9-> u  becomes  w -0.9-> u.
	g := build(t, 3,
		graph.Edge{From: 0, To: 1, Weight: 0.6},
		graph.Edge{From: 1, To: 2, Weight: 0.9})
	if err := ApplyR3(g, 1); err != nil {
		t.Fatal(err)
	}
	if w, ok := g.Label(0, 2); !ok || w != 0.9 {
		t.Fatalf("fig3(1): label(w,u) = %g,%v", w, ok)
	}
	if g.Alive(1) || g.NumEdges() != 1 {
		t.Fatalf("fig3(1): %v", g)
	}

	// Figure 3 (2): several predecessors, several successors; all out-edges
	// move to the controller, other in-edges are dropped.
	g2 := build(t, 6,
		graph.Edge{From: 0, To: 2, Weight: 0.2},  // w1 -> v
		graph.Edge{From: 1, To: 2, Weight: 0.7},  // w2 = w_dc -> v
		graph.Edge{From: 2, To: 3, Weight: 0.5},  // v -> u1
		graph.Edge{From: 2, To: 4, Weight: 0.25}, // v -> u2
		graph.Edge{From: 2, To: 5, Weight: 0.1})  // v -> u3
	if err := ApplyR3(g2, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		u graph.NodeID
		w float64
	}{{3, 0.5}, {4, 0.25}, {5, 0.1}} {
		if w, ok := g2.Label(1, c.u); !ok || w != c.w {
			t.Fatalf("fig3(2): label(w2,%d) = %g,%v want %g", c.u, w, ok, c.w)
		}
	}
	if g2.OutDegree(0) != 0 {
		t.Fatal("fig3(2): w1 kept an edge")
	}

	// Figure 3 (3): existing edge w->u merges labels m+n.
	g3 := build(t, 3,
		graph.Edge{From: 0, To: 1, Weight: 0.8}, // w_dc -> v
		graph.Edge{From: 1, To: 2, Weight: 0.3}, // v -> u (n)
		graph.Edge{From: 0, To: 2, Weight: 0.4}) // w -> u (m)
	if err := ApplyR3(g3, 1); err != nil {
		t.Fatal(err)
	}
	if w, ok := g3.Label(0, 2); !ok || w != 0.7 {
		t.Fatalf("fig3(3): merged = %g,%v", w, ok)
	}

	// Figure 3 (4): w is both predecessor and successor of v; the would-be
	// self loop is dropped.
	g4 := build(t, 2,
		graph.Edge{From: 0, To: 1, Weight: 0.6},
		graph.Edge{From: 1, To: 0, Weight: 0.2})
	if err := ApplyR3(g4, 1); err != nil {
		t.Fatal(err)
	}
	if g4.NumEdges() != 0 || g4.NumNodes() != 1 {
		t.Fatalf("fig3(4): %v", g4)
	}
}

func TestApplyR3NoController(t *testing.T) {
	g := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.3})
	if err := ApplyR3(g, 1); err == nil {
		t.Fatal("R3 on a non-C3 node must error")
	}
}

// allSolversAgree cross-checks every solver on one query.
func allSolversAgree(t *testing.T, g *graph.Graph, q Query, trial int) {
	t.Helper()
	want := CBE(g, q)
	x := graph.NewNodeSet(q.S, q.T)

	seq, _ := SequentialReduction(g.Clone(), q, x, FullTrust)
	if seq == Unknown {
		t.Fatalf("trial %d %v: sequential reduction undecided", trial, q)
	}
	if seq.Bool() != want {
		t.Fatalf("trial %d %v: sequential reduction = %v, CBE = %v", trial, q, seq, want)
	}

	for _, opt := range []Options{
		{Workers: 1},
		{Workers: 4},
		{Workers: 3, TwoPhaseOnly: true},
		{Workers: 2, DisableTermination: true},
		{Workers: 2, NaiveContraction: true},
	} {
		opt.Trust = FullTrust
		res := mustReduce(t, g.Clone(), q, x, opt)
		if res.Ans == Unknown {
			t.Fatalf("trial %d %v opts %+v: parallel reduction undecided", trial, q, opt)
		}
		if res.Ans.Bool() != want {
			t.Fatalf("trial %d %v opts %+v: parallel = %v, CBE = %v", trial, q, opt, res.Ans, want)
		}
	}
}

// TestReductionQueryNamingNoCompany: a query id outside the graph — negative
// or past its capacity, as a site can receive off the wire — gets CBE's
// answer instead of a panic.
func TestReductionQueryNamingNoCompany(t *testing.T) {
	g := build(t, 3, graph.Edge{From: 0, To: 1, Weight: 0.9}, graph.Edge{From: 1, To: 2, Weight: 0.2})
	for _, q := range []Query{{S: -1, T: 1}, {S: 0, T: -1}, {S: 0, T: 1 << 20}, {S: -5, T: -5}} {
		res, err := ParallelReduction(context.Background(), g.Clone(), q, graph.NewNodeSet(q.S, q.T), Options{Workers: 2})
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if want := CBE(g, q); (res.Ans == True) != want {
			t.Fatalf("%+v: reduction says %v, CBE %v", q, res.Ans, want)
		}
	}
}

func TestReductionMatchesCBERandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		g := gen.Random(n, rng.Intn(5*n), rng.Int63())
		q := Query{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		allSolversAgree(t, g, q, trial)
	}
}

func TestReductionMatchesCBEScaleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		n := 20 + rng.Intn(200)
		g := gen.ScaleFree(gen.ScaleFreeConfig{
			Nodes:        n,
			AvgOutDegree: 1 + rng.Float64()*4,
			Seed:         rng.Int63(),
		})
		// Bias the query toward hubs so positives occur.
		s := graph.NodeID(rng.Intn(n/4 + 1))
		tt := graph.NodeID(rng.Intn(n))
		allSolversAgree(t, g, Query{s, tt}, trial)
	}
}

// TestQuickReductionEquivalence is the core property test: on arbitrary
// random ownership graphs, the parallel reduction decides q_c exactly like
// Control-by-Expansion.
func TestQuickReductionEquivalence(t *testing.T) {
	f := func(seed int64, nn, mm uint8, s, tt uint8, workers uint8) bool {
		n := 2 + int(nn%50)
		g := gen.Random(n, int(mm)%(5*n), seed)
		q := Query{graph.NodeID(int(s) % n), graph.NodeID(int(tt) % n)}
		want := CBE(g, q)
		res, err := ParallelReduction(context.Background(), g.Clone(), q, graph.NewNodeSet(q.S, q.T),
			Options{Workers: 1 + int(workers%8), Trust: FullTrust})
		return err == nil && res.Ans != Unknown && res.Ans.Bool() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestReductionPreservesControlEquivalence verifies Proposition 1 for the
// whole reduction: for every pair of nodes in the exclusion set, control in
// the reduced graph matches control in the original graph.
func TestReductionPreservesControlEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(30)
		g := gen.Random(n, rng.Intn(5*n), rng.Int63())
		// Exclude a handful of random nodes (like boundary nodes).
		x := graph.NewNodeSet()
		for i := 0; i < 3+rng.Intn(3); i++ {
			x.Add(graph.NodeID(rng.Intn(n)))
		}
		var xs []graph.NodeID
		for v := range x {
			xs = append(xs, v)
		}
		q := Query{xs[0], xs[len(xs)-1]}
		red := g.Clone()
		// Distrust T1/T2 so the reduction cannot stop early with an answer
		// derived from the exclusion-set query nodes.
		res := mustReduce(t, red, q, x, Options{Workers: 3})
		_ = res
		for _, s := range xs {
			for _, tt := range xs {
				if !red.Alive(s) || !red.Alive(tt) {
					t.Fatalf("trial %d: excluded node removed", trial)
				}
				if CBE(g, Query{s, tt}) != CBE(red, Query{s, tt}) {
					t.Fatalf("trial %d: control-equivalence broken for (%d,%d)", trial, s, tt)
				}
			}
		}
	}
}

// TestReductionShrinksGraph checks the reduction actually reduces: on
// scale-free graphs the surviving graph must be much smaller than the input
// (the effect Figures 5–7 rely on).
func TestReductionShrinksGraph(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 5000, AvgOutDegree: 2, Seed: 99})
	n0 := g.NumNodes()
	q := Query{0, graph.NodeID(n0 - 1)}
	res := mustReduce(t, g, q, graph.NewNodeSet(q.S, q.T),
		Options{Workers: 4, DisableTermination: true})
	if g.NumNodes() > n0/10 {
		t.Fatalf("reduction left %d of %d nodes", g.NumNodes(), n0)
	}
	if res.Stats.Removed+res.Stats.Contracted != n0-g.NumNodes() {
		t.Fatalf("stats inconsistent: %+v, removed %d", res.Stats, n0-g.NumNodes())
	}
}

// TestBinarySizeAfterReduction: the reduced partial's O(1) BinarySize — what
// the in-process transport reports as traffic — equals the bytes WriteBinary
// emits, under the serial and the sharded batch mutators alike.
func TestBinarySizeAfterReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(200)
		g := gen.Random(n, rng.Intn(4*n), rng.Int63())
		x := graph.NewNodeSet()
		for i := 0; i < 1+n/8; i++ {
			x.Add(graph.NodeID(rng.Intn(n)))
		}
		q := Query{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		x.Add(q.S)
		x.Add(q.T)
		res := mustReduce(t, g, q, x, Options{Workers: 1 + 3*(trial%2), DisableTermination: true})
		var buf bytes.Buffer
		if err := res.Reduced.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if got := res.Reduced.BinarySize(); got != int64(buf.Len()) {
			t.Fatalf("trial %d: BinarySize() = %d, WriteBinary wrote %d", trial, got, buf.Len())
		}
	}
}

func TestParallelReductionC3CycleCollapse(t *testing.T) {
	// A pure cycle of directly-controlled nodes plus a tail:
	// s -0.9-> a, a/b/c form a 0.6-cycle, c -0.8-> t.
	g := build(t, 5,
		graph.Edge{From: 0, To: 1, Weight: 0.9},
		graph.Edge{From: 1, To: 2, Weight: 0.6},
		graph.Edge{From: 2, To: 3, Weight: 0.6},
		graph.Edge{From: 3, To: 1, Weight: 0.6},
		graph.Edge{From: 3, To: 4, Weight: 0.8})
	q := Query{0, 4}
	if !CBE(g, q) {
		t.Fatal("CBE should accept")
	}
	res := mustReduce(t, g.Clone(), q, graph.NewNodeSet(0, 4), Options{Workers: 4, Trust: FullTrust})
	if res.Ans != True {
		t.Fatalf("cycle collapse broke the answer: %v", res.Ans)
	}
}

func TestParallelReductionMutualControlPair(t *testing.T) {
	// Two companies holding 0.6 of each other (legal: distinct in-sums),
	// with s controlling one of them.
	g := build(t, 4,
		graph.Edge{From: 0, To: 1, Weight: 0.4},
		graph.Edge{From: 2, To: 1, Weight: 0.6},
		graph.Edge{From: 1, To: 2, Weight: 0.6},
		graph.Edge{From: 1, To: 3, Weight: 0.7})
	for s := graph.NodeID(0); s < 3; s++ {
		q := Query{s, 3}
		want := CBE(g, q)
		res := mustReduce(t, g.Clone(), q, graph.NewNodeSet(q.S, q.T), Options{Trust: FullTrust})
		if res.Ans == Unknown || res.Ans.Bool() != want {
			t.Fatalf("s=%d: got %v, want %v", s, res.Ans, want)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Iterations: 1, Removed: 2, Contracted: 3}
	a.Add(Stats{Iterations: 10, Removed: 20, Contracted: 30})
	if a.Iterations != 11 || a.Removed != 22 || a.Contracted != 33 {
		t.Fatalf("Add: %+v", a)
	}
}

func TestParallelReductionEarlyTermination(t *testing.T) {
	// T3 fires before any work.
	g := build(t, 3, graph.Edge{From: 0, To: 1, Weight: 0.9}, graph.Edge{From: 2, To: 1, Weight: 0.05})
	res := mustReduce(t, g, Query{0, 1}, graph.NewNodeSet(0, 1), Options{Trust: FullTrust})
	if res.Ans != True || res.Stats.Iterations != 0 {
		t.Fatalf("early T3: %+v", res)
	}
}

// TestTwoPhaseOnlyLeavesResidue demonstrates the design choice behind the
// default exhaustive loop: contracting C3 nodes can re-create C1/C2 nodes,
// which the paper-literal two-phase run leaves in the partial answer while
// the exhaustive loop removes them.
func TestTwoPhaseOnlyLeavesResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	largerSeen := false
	for trial := 0; trial < 200 && !largerSeen; trial++ {
		n := 6 + rng.Intn(30)
		g := gen.Random(n, rng.Intn(5*n), rng.Int63())
		q := Query{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		x := graph.NewNodeSet(q.S, q.T)

		twoPhase := g.Clone()
		mustReduce(t, twoPhase, q, x, Options{
			Workers: 2, TwoPhaseOnly: true, DisableTermination: true})
		exhaustive := g.Clone()
		mustReduce(t, exhaustive, q, x, Options{
			Workers: 2, DisableTermination: true})

		if exhaustive.NumNodes() > twoPhase.NumNodes() {
			t.Fatalf("trial %d: exhaustive left more nodes (%d) than two-phase (%d)",
				trial, exhaustive.NumNodes(), twoPhase.NumNodes())
		}
		if twoPhase.NumNodes() > exhaustive.NumNodes() {
			largerSeen = true
		}
		// Both remain control-equivalent for {s, t}.
		for _, h := range []*graph.Graph{twoPhase, exhaustive} {
			if CBE(h, q) != CBE(g, q) {
				t.Fatalf("trial %d: residue broke control-equivalence", trial)
			}
		}
	}
	if !largerSeen {
		t.Skip("no residue-producing instance found (rare but possible)")
	}
}
