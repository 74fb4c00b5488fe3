package datalog

import (
	"math/rand"
	"testing"

	"ccp/internal/control"
	"ccp/internal/graph"
)

// dyadicGraph generates a random ownership graph whose weights are multiples
// of 1/64. Dyadic weights sum exactly in float64, so msum results are
// independent of accumulation order and sums landing exactly on the 0.5
// threshold are hit deliberately, not by luck — the strict > comparison must
// keep them below control.
func dyadicGraph(rng *rand.Rand) *graph.Graph {
	n := 3 + rng.Intn(14)
	g := graph.New(n)
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		// Bias toward halves and quarters so exact-threshold sums (e.g.
		// 16/64 + 16/64 = 0.5) occur often.
		var w float64
		switch rng.Intn(3) {
		case 0:
			w = float64(16*(1+rng.Intn(4))) / 64 // 0.25, 0.5, 0.75, 1.0
		case 1:
			w = float64(8*(1+rng.Intn(8))) / 64
		default:
			w = float64(1+rng.Intn(64)) / 64
		}
		// AddEdge rejects parallel edges and overweight labels; skipping is
		// fine, the generator only needs variety.
		_ = g.AddEdge(u, v, w)
	}
	return g
}

// TestDifferential500Seeds checks the evaluator against CBE — the only
// independent implementation of q_c(s,t) — over 500 random graphs: Controls
// runs the program as written, bottom-up. Any divergence from CBE is a bug
// in the evaluator.
func TestDifferential500Seeds(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := dyadicGraph(rng)
		n := g.Cap()
		for q := 0; q < 3; q++ {
			s := graph.NodeID(rng.Intn(n))
			tgt := graph.NodeID(rng.Intn(n))
			cbe := control.CBE(g, control.Query{S: s, T: tgt})
			bottomUp, err := Controls(g, s, tgt)
			if err != nil {
				t.Fatalf("seed %d: bottom-up: %v", seed, err)
			}
			if bottomUp != cbe {
				t.Fatalf("seed %d: control(%d,%d): cbe=%v bottom-up=%v", seed, s, tgt, cbe, bottomUp)
			}
		}
	}
}

// TestExactThresholdBoundary pins the strict-inequality semantics at the
// 0.5 boundary. Exact dyadic sums: 32/64 must not confer control, 33/64
// must. Fifty 1% stakes: their float sum lands a hair above 0.5, and only
// the shared threshold (graph.ControlThreshold + graph.ControlEps) keeps it
// at "exactly half", so every engine must answer false.
func TestExactThresholdBoundary(t *testing.T) {
	type edge struct {
		u, v graph.NodeID
		w    float64
	}
	// Node 0 owns 1 and 2 outright; 1 and 2 each own 16/64 of 3 (sum 0.5,
	// no control) and 1 and 2 each own 16/64 of 4 plus 0 owns 1/64 of 4
	// directly (sum 33/64, control).
	dyadic := []edge{
		{0, 1, 1.0}, {0, 2, 1.0},
		{1, 3, 16.0 / 64}, {2, 3, 16.0 / 64},
		{1, 4, 16.0 / 64}, {2, 4, 16.0 / 64}, {0, 4, 1.0 / 64},
	}
	// Companies 1–50 are each 60%-owned by 0 and each hold 1% of 51.
	var fifty []edge
	for c := graph.NodeID(1); c <= 50; c++ {
		fifty = append(fifty, edge{0, c, 0.6}, edge{c, 51, 0.01})
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges []edge
		tgt   graph.NodeID
		want  bool
	}{
		{"dyadic-half", 5, dyadic, 3, false},
		{"dyadic-above", 5, dyadic, 4, true},
		{"fifty-1pct", 52, fifty, 51, false},
	} {
		g := graph.New(tc.n)
		for _, e := range tc.edges {
			if err := g.AddEdge(e.u, e.v, e.w); err != nil {
				t.Fatal(err)
			}
		}
		cbe := control.CBE(g, control.Query{S: 0, T: tc.tgt})
		bottomUp, err := Controls(g, 0, tc.tgt)
		if err != nil {
			t.Fatal(err)
		}
		if cbe != tc.want || bottomUp != tc.want {
			t.Fatalf("%s: control(0,%d): cbe=%v bottom-up=%v, want %v",
				tc.name, tc.tgt, cbe, bottomUp, tc.want)
		}
	}
}

// TestSelfControl pins the reflexive case in both columns.
func TestSelfControl(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	for s := graph.NodeID(0); s < 3; s++ {
		cbe := control.CBE(g, control.Query{S: s, T: s})
		bottomUp, err := Controls(g, s, s)
		if err != nil {
			t.Fatal(err)
		}
		if !cbe || !bottomUp {
			t.Fatalf("control(%d,%d): cbe=%v bottom-up=%v, want both true", s, s, cbe, bottomUp)
		}
	}
}
