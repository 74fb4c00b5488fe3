package control

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// checkWitness validates the defining property of a witness: every step's
// stakes are held by s or by companies of strictly earlier steps, every
// step's total exceeds 0.5, every stake is a real edge, and the last step
// is t.
func checkWitness(t *testing.T, g *graph.Graph, q Query, steps []WitnessStep) {
	t.Helper()
	if q.S == q.T {
		if len(steps) != 0 {
			t.Fatalf("self witness should be empty: %v", steps)
		}
		return
	}
	known := graph.NewNodeSet(q.S)
	for i, st := range steps {
		var sum float64
		seen := graph.NewNodeSet()
		for _, e := range st.Stakes {
			if e.To != st.Company {
				t.Fatalf("step %d: stake %v does not target %d", i, e, st.Company)
			}
			if !known.Has(e.From) {
				t.Fatalf("step %d: holder %d not yet controlled", i, e.From)
			}
			if seen.Has(e.From) {
				t.Fatalf("step %d: holder %d counted twice", i, e.From)
			}
			seen.Add(e.From)
			w, ok := g.Label(e.From, e.To)
			if !ok || w != e.Weight {
				t.Fatalf("step %d: stake %v is not an edge of the graph", i, e)
			}
			sum += e.Weight
		}
		if !graph.ExceedsControl(sum) {
			t.Fatalf("step %d: stakes sum to %g", i, sum)
		}
		known.Add(st.Company)
	}
	if len(steps) == 0 || steps[len(steps)-1].Company != q.T {
		t.Fatalf("witness does not end at t: %v", steps)
	}
}

func TestExplainDiamond(t *testing.T) {
	g := diamond(t)
	q := Query{0, 3}
	steps, ok := Explain(g, q)
	if !ok {
		t.Fatal("control not found")
	}
	checkWitness(t, g, q, steps)
	// The diamond needs all three steps: both intermediaries and t.
	if len(steps) != 3 {
		t.Fatalf("steps = %v", steps)
	}
}

func TestExplainPrunesIrrelevantBranches(t *testing.T) {
	// s controls a, b and c; t needs only a's majority stake.
	g := build(t, 5,
		graph.Edge{From: 0, To: 1, Weight: 0.9}, // a
		graph.Edge{From: 0, To: 2, Weight: 0.9}, // b (irrelevant)
		graph.Edge{From: 0, To: 3, Weight: 0.9}, // c (irrelevant)
		graph.Edge{From: 1, To: 4, Weight: 0.7}, // a -> t
	)
	steps, ok := Explain(g, Query{0, 4})
	if !ok {
		t.Fatal("control not found")
	}
	checkWitness(t, g, Query{0, 4}, steps)
	if len(steps) != 2 {
		t.Fatalf("want pruned witness of 2 steps, got %v", steps)
	}
}

func TestExplainNegative(t *testing.T) {
	g := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.5})
	if steps, ok := Explain(g, Query{0, 1}); ok || steps != nil {
		t.Fatalf("50%% explained as control: %v", steps)
	}
	if _, ok := Explain(g, Query{0, 9}); ok {
		t.Fatal("missing node explained")
	}
	if steps, ok := Explain(g, Query{1, 1}); !ok || steps != nil {
		t.Fatal("self control should be a trivial witness")
	}
}

// TestQuickExplainMatchesCBE: Explain succeeds exactly when CBE says
// control holds, and its witness always validates.
func TestQuickExplainMatchesCBE(t *testing.T) {
	f := func(seed int64, nn, mm, ss, tt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%40)
		g := gen.Random(n, int(mm)%(5*n), rng.Int63())
		q := Query{graph.NodeID(int(ss) % n), graph.NodeID(int(tt) % n)}
		want := CBE(g, q)
		steps, ok := Explain(g, q)
		if ok != want {
			return false
		}
		if !ok {
			return true
		}
		// Validate the witness structurally (mirrors checkWitness without
		// *testing.T).
		if q.S == q.T {
			return len(steps) == 0
		}
		known := graph.NewNodeSet(q.S)
		for _, st := range steps {
			var sum float64
			for _, e := range st.Stakes {
				if e.To != st.Company || !known.Has(e.From) {
					return false
				}
				w, okE := g.Label(e.From, e.To)
				if !okE || w != e.Weight {
					return false
				}
				sum += e.Weight
			}
			if !graph.ExceedsControl(sum) {
				return false
			}
			known.Add(st.Company)
		}
		return steps[len(steps)-1].Company == q.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestExplainStepsJustified200Seeds: over 200 seeded graphs, every witness
// step is justified by s or earlier steps whose stakes total more than half,
// its Total is that sum, every step but the last is a holder in a later step
// (the chain is pruned), and the chain ends at t exactly when CBE — and the
// literal rescan formulation, which shares no code with it — says control.
func TestExplainStepsJustified200Seeds(t *testing.T) {
	positives := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := gen.Random(n, rng.Intn(5*n), rng.Int63())
		for k := 0; k < 4; k++ {
			q := Query{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			want := CBE(g, q)
			if literal := SerialBaselineSet(g, q.S).Has(q.T); literal != want {
				t.Fatalf("seed %d %v: CBE %v, literal Algorithm 1 %v", seed, q, want, literal)
			}
			steps, ok := Explain(g, q)
			if ok != want {
				t.Fatalf("seed %d %v: Explain %v, CBE %v", seed, q, ok, want)
			}
			if !ok {
				if steps != nil {
					t.Fatalf("seed %d %v: negative answer with steps %v", seed, q, steps)
				}
				continue
			}
			checkWitness(t, g, q, steps)
			used := graph.NewNodeSet()
			for i := len(steps) - 1; i >= 0; i-- {
				st := steps[i]
				var sum float64
				for _, e := range st.Stakes {
					sum += e.Weight
				}
				if d := st.Total - sum; d > 1e-12 || d < -1e-12 || !graph.ExceedsControl(st.Total) {
					t.Fatalf("seed %d %v step %d: Total %g, stakes sum %g", seed, q, i, st.Total, sum)
				}
				if i < len(steps)-1 && !used.Has(st.Company) {
					t.Fatalf("seed %d %v: step %d (%d) justifies no later step", seed, q, i, st.Company)
				}
				for _, e := range st.Stakes {
					used.Add(e.From)
				}
			}
			if q.S != q.T {
				positives++
			}
		}
	}
	if positives < 20 {
		t.Fatalf("only %d non-trivial positive queries: the property was barely exercised", positives)
	}
}
