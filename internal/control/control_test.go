package control

import (
	"math/rand"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func build(t *testing.T, n int, edges ...graph.Edge) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// diamond is the canonical indirect-control example: s holds 60% of a and
// 60% of b; a and b each hold 30% of t. s controls t only through the
// companies it controls jointly holding 60%.
func diamond(t *testing.T) *graph.Graph {
	return build(t, 4,
		graph.Edge{From: 0, To: 1, Weight: 0.6},
		graph.Edge{From: 0, To: 2, Weight: 0.6},
		graph.Edge{From: 1, To: 3, Weight: 0.3},
		graph.Edge{From: 2, To: 3, Weight: 0.3},
	)
}

func TestCBEDirect(t *testing.T) {
	g := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.51})
	if !CBE(g, Query{0, 1}) {
		t.Fatal("direct majority not detected")
	}
	if CBE(g, Query{1, 0}) {
		t.Fatal("reverse control invented")
	}
}

func TestCBEExactlyHalfIsNotControl(t *testing.T) {
	g := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.5})
	if CBE(g, Query{0, 1}) {
		t.Fatal("50% must not control")
	}
}

func TestCBEIndirectDiamond(t *testing.T) {
	g := diamond(t)
	if !CBE(g, Query{0, 3}) {
		t.Fatal("joint 60% through controlled companies not detected")
	}
}

func TestCBEJointMinorityWithoutControlOfIntermediaries(t *testing.T) {
	// s owns only 40% of a and b; a+b own 60% of t — but s does not control
	// a or b, so their stakes must not count.
	g := build(t, 4,
		graph.Edge{From: 0, To: 1, Weight: 0.4},
		graph.Edge{From: 0, To: 2, Weight: 0.4},
		graph.Edge{From: 1, To: 3, Weight: 0.3},
		graph.Edge{From: 2, To: 3, Weight: 0.3},
	)
	if CBE(g, Query{0, 3}) {
		t.Fatal("uncontrolled intermediaries' stakes were counted")
	}
}

func TestCBEMonotonicSumCountsEachHolderOnce(t *testing.T) {
	// s controls a; a owns 0.3 of t twice (via merged parallel edges it
	// would be one edge; model with two distinct intermediaries instead).
	// Here: a owns 0.3 of t, and also 0.3 of b which owns nothing of t.
	// Control must not double-count a's single 0.3 stake.
	g := build(t, 4,
		graph.Edge{From: 0, To: 1, Weight: 0.9},
		graph.Edge{From: 1, To: 3, Weight: 0.3},
		graph.Edge{From: 1, To: 2, Weight: 0.3},
		graph.Edge{From: 2, To: 3, Weight: 0.1},
	)
	if CBE(g, Query{0, 3}) {
		t.Fatal("0.3 (+0.1 uncontrolled) must not control")
	}
}

func TestCBECycle(t *testing.T) {
	// Mutual majority: s controls a, a and b control each other, b owns t.
	g := build(t, 4,
		graph.Edge{From: 0, To: 1, Weight: 0.7},
		graph.Edge{From: 1, To: 2, Weight: 0.6},
		graph.Edge{From: 2, To: 1, Weight: 0.3},
		graph.Edge{From: 2, To: 3, Weight: 0.8},
	)
	if !CBE(g, Query{0, 3}) {
		t.Fatal("control through cycle not detected")
	}
}

func TestCBESelfAndMissing(t *testing.T) {
	g := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.6})
	if !CBE(g, Query{0, 0}) {
		t.Fatal("Control(x,x) must hold")
	}
	if CBE(g, Query{0, 5}) || CBE(g, Query{5, 0}) {
		t.Fatal("queries on missing nodes must be false")
	}
}

func TestControlledSet(t *testing.T) {
	g := diamond(t)
	set := ControlledSet(g, 0)
	for _, v := range []graph.NodeID{0, 1, 2, 3} {
		if !set.Has(v) {
			t.Fatalf("controlled set misses %d: %v", v, set)
		}
	}
	if s := ControlledSet(g, 3); len(s) != 1 || !s.Has(3) {
		t.Fatalf("ControlledSet(3) = %v", s)
	}
	if s := ControlledSet(g, 99); len(s) != 0 {
		t.Fatalf("ControlledSet of missing node = %v", s)
	}
}

func TestCheckTermination(t *testing.T) {
	trust := FullTrust
	// T3: direct control.
	g := build(t, 3, graph.Edge{From: 0, To: 1, Weight: 0.6})
	if a := CheckTermination(g, Query{0, 1}, trust); a != True {
		t.Fatalf("T3: %v", a)
	}
	// T1: s directly controls nothing.
	g2 := build(t, 3,
		graph.Edge{From: 0, To: 1, Weight: 0.4},
		graph.Edge{From: 2, To: 1, Weight: 0.4})
	if a := CheckTermination(g2, Query{0, 1}, trust); a != False {
		t.Fatalf("T1: %v", a)
	}
	// T2: t cannot be controlled (in-sum <= 0.5).
	g3 := build(t, 3,
		graph.Edge{From: 0, To: 2, Weight: 0.9},
		graph.Edge{From: 2, To: 1, Weight: 0.5})
	if a := CheckTermination(g3, Query{0, 1}, trust); a != False {
		t.Fatalf("T2: %v", a)
	}
	// None fires.
	g4 := diamond(t)
	if a := CheckTermination(g4, Query{0, 3}, trust); a != Unknown {
		t.Fatalf("want Unknown, got %v", a)
	}
	// s == t.
	if a := CheckTermination(g4, Query{2, 2}, trust); a != True {
		t.Fatalf("s==t: %v", a)
	}
	// Missing endpoints decide the query under full trust.
	if a := CheckTermination(g4, Query{9, 3}, trust); a != False {
		t.Fatalf("missing s: %v", a)
	}
	if a := CheckTermination(g4, Query{0, 9}, trust); a != False {
		t.Fatalf("missing t: %v", a)
	}
}

func TestCheckTerminationTrustGates(t *testing.T) {
	// With T1/T2 distrusted (partial evaluation), neither may fire.
	g := build(t, 3,
		graph.Edge{From: 0, To: 1, Weight: 0.4},
		graph.Edge{From: 2, To: 1, Weight: 0.05})
	if a := CheckTermination(g, Query{0, 1}, TerminationTrust{}); a != Unknown {
		t.Fatalf("gated conditions fired: %v", a)
	}
	// T3 fires regardless of trust.
	g2 := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.8})
	if a := CheckTermination(g2, Query{0, 1}, TerminationTrust{}); a != True {
		t.Fatalf("T3 should fire untrusted: %v", a)
	}
}

func TestAnswerBoolAndString(t *testing.T) {
	if !True.Bool() || False.Bool() {
		t.Fatal("Bool broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bool(Unknown) must panic")
		}
	}()
	if True.String() != "true" || False.String() != "false" || Unknown.String() != "unknown" {
		t.Fatal("String broken")
	}
	_ = Unknown.Bool()
}

func TestQueryString(t *testing.T) {
	if s := (Query{3, 9}).String(); s != "q_c(3,9)" {
		t.Fatalf("String = %s", s)
	}
}

// TestControlledSetMatchesLiteral200Seeds: over 200 seeded graphs, the
// worklist controlled set and CBE's answer for every target, on the live
// graph and on a frozen snapshot, agree with the literal rescan formulation
// (SerialBaselineSet), which shares no code with the worklist.
func TestControlledSetMatchesLiteral200Seeds(t *testing.T) {
	sameSet := func(a, b graph.NodeSet) bool {
		if len(a) != len(b) {
			return false
		}
		for v := range a {
			if !b.Has(v) {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := gen.Random(n, rng.Intn(4*n), rng.Int63())
		fz := graph.Freeze(g)
		for q := 0; q < 4; q++ {
			s := graph.NodeID(rng.Intn(n + 2)) // ids ≥ n are not live
			want := SerialBaselineSet(g, s)
			for name, got := range map[string]graph.NodeSet{
				"controlled-set": ControlledSet(g, s),
				"frozen":         ControlledSet(fz, s),
			} {
				if !sameSet(got, want) {
					t.Fatalf("seed %d source %d: %s = %v, literal Algorithm 1 = %v", seed, s, name, got, want)
				}
			}
			for v := graph.NodeID(0); int(v) < n+2; v++ {
				if v != s && (CBE(g, Query{s, v}) != want.Has(v) || CBE(fz, Query{s, v}) != want.Has(v)) {
					t.Fatalf("seed %d: CBE(%d,%d) live %v frozen %v, literal Algorithm 1 %v",
						seed, s, v, CBE(g, Query{s, v}), CBE(fz, Query{s, v}), want.Has(v))
				}
			}
		}
	}
}
