package control

import (
	"math/rand"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestSerialBaselineSetMatchesCBE(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := gen.Random(n, rng.Intn(4*n), rng.Int63())
		s := graph.NodeID(rng.Intn(n))
		want := ControlledSet(g, s)
		got := SerialBaselineSet(g, s)
		if len(got) != len(want) {
			t.Fatalf("trial %d: baseline set %v, want %v", trial, got, want)
		}
		for v := range want {
			if !got.Has(v) {
				t.Fatalf("trial %d: baseline misses %d", trial, v)
			}
		}
	}
	if s := SerialBaselineSet(gen.Random(5, 5, 1), 99); len(s) != 0 {
		t.Fatalf("missing source: %v", s)
	}
}

func TestNaiveContractionPureCycle(t *testing.T) {
	// Every C3 node's controller is itself C3 (one pure cycle): the naive
	// contraction must still make progress via resolveFrontier's fallback.
	g := build(t, 5,
		graph.Edge{From: 0, To: 1, Weight: 0.9}, // s controls a
		graph.Edge{From: 1, To: 2, Weight: 0.6},
		graph.Edge{From: 2, To: 3, Weight: 0.6},
		graph.Edge{From: 3, To: 1, Weight: 0.6}, // a,b,c form a C3 cycle
		graph.Edge{From: 3, To: 4, Weight: 0.9},
	)
	// Exclude s and t AND node 1 so the cycle members 2,3 stay C3 with C3
	// controllers only after phase 1... simpler: query (0,4) directly.
	q := Query{0, 4}
	want := CBE(g, q)
	res := mustReduce(t, g.Clone(), q, graph.NewNodeSet(0, 4),
		Options{Workers: 2, NaiveContraction: true, Trust: FullTrust})
	if res.Ans == Unknown || res.Ans.Bool() != want {
		t.Fatalf("naive contraction: got %v, want %v", res.Ans, want)
	}

	// A standalone 2-cycle of direct control with no external controller:
	// both nodes are C3 and each other's controller.
	g2 := build(t, 4,
		graph.Edge{From: 0, To: 1, Weight: 0.3},
		graph.Edge{From: 2, To: 1, Weight: 0.6},
		graph.Edge{From: 1, To: 2, Weight: 0.6},
		graph.Edge{From: 1, To: 3, Weight: 0.3},
		graph.Edge{From: 0, To: 3, Weight: 0.3},
	)
	q2 := Query{0, 3}
	want2 := CBE(g2, q2)
	res2 := mustReduce(t, g2.Clone(), q2, graph.NewNodeSet(0, 3),
		Options{Workers: 2, NaiveContraction: true, DisableTermination: true, Trust: FullTrust})
	if res2.Ans == Unknown || res2.Ans.Bool() != want2 {
		t.Fatalf("naive contraction on mutual pair: got %v, want %v", res2.Ans, want2)
	}
}

func TestNaiveContractionMatchesDefaultRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		g := gen.Random(n, rng.Intn(5*n), rng.Int63())
		q := Query{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		want := CBE(g, q)
		res := mustReduce(t, g.Clone(), q, graph.NewNodeSet(q.S, q.T),
			Options{Workers: 3, NaiveContraction: true, Trust: FullTrust})
		if res.Ans == Unknown || res.Ans.Bool() != want {
			t.Fatalf("trial %d: naive=%v want=%v", trial, res.Ans, want)
		}
	}
}
