package datalog

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ccp/internal/graph"
)

// buildClosure loads the transitive-closure program over a 4-cycle.
func buildClosure(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	for _, name := range []string{"edge", "path"} {
		if err := e.Relation(name, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	mustRule(t, e, Rule{
		Head: Atom{Pred: "path", Terms: []Term{V("x"), V("y")}},
		Body: []Atom{{Pred: "edge", Terms: []Term{V("x"), V("y")}}},
	})
	mustRule(t, e, Rule{
		Head: Atom{Pred: "path", Terms: []Term{V("x"), V("z")}},
		Body: []Atom{
			{Pred: "path", Terms: []Term{V("x"), V("y")}},
			{Pred: "edge", Terms: []Term{V("y"), V("z")}},
		},
	})
	for _, p := range [][2]Value{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := e.AddFact("edge", 0, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// mustRun runs e to fixpoint and returns the number of rounds.
func mustRun(t *testing.T, e *Engine) int {
	t.Helper()
	iters, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return iters
}

func mustRule(t *testing.T, e *Engine, r Rule) {
	t.Helper()
	if err := e.AddRule(r); err != nil {
		t.Fatal(err)
	}
}

// wantFacts asserts that rel holds exactly the given tuples (sorted).
func wantFacts(t *testing.T, e *Engine, rel string, want [][]Value) {
	t.Helper()
	got := e.Facts(rel)
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", rel, got, want)
	}
	for i := range want {
		if !valuesEqual(got[i], want[i]) {
			t.Fatalf("%s = %v, want %v", rel, got, want)
		}
	}
}

func TestRunPlannedMatchesRunClosure(t *testing.T) {
	e := buildClosure(t)
	mustRun(t, e)
	// The closure of a 4-cycle is every ordered pair.
	var want [][]Value
	for x := Value(0); x < 4; x++ {
		for y := Value(0); y < 4; y++ {
			want = append(want, []Value{x, y})
		}
	}
	wantFacts(t, e, "path", want)
}

func TestRunPlannedMatchesRunMSum(t *testing.T) {
	// Diamond: 1 owns 2 and 3 at 0.6 each; 2 and 3 together own 0.51 of 4,
	// 0.5 of 5 (exactly the threshold: no control) and 3 alone 0.4 of 6.
	g := graph.New(7)
	for _, f := range []struct {
		u, v graph.NodeID
		w    float64
	}{{1, 2, 0.6}, {1, 3, 0.6}, {2, 4, 0.25}, {3, 4, 0.26}, {2, 5, 0.25}, {3, 5, 0.25}, {3, 6, 0.4}} {
		if err := g.AddEdge(f.u, f.v, f.w); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine()
	if err := e.BindGraph("own", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("source", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("control", 2, false); err != nil {
		t.Fatal(err)
	}
	mustRule(t, e, Rule{
		Head: Atom{Pred: "control", Terms: []Term{V("x"), V("x")}},
		Body: []Atom{{Pred: "source", Terms: []Term{V("x")}}},
	})
	mustRule(t, e, Rule{
		Head: Atom{Pred: "control", Terms: []Term{V("x"), V("z")}},
		Body: []Atom{
			{Pred: "control", Terms: []Term{V("x"), V("y")}},
			{Pred: "own", Terms: []Term{V("y"), V("z")}, WeightVar: "w"},
		},
		Agg: &MSum{WeightVar: "w", ContribVar: "y", Threshold: 0.5},
	})
	if err := e.AddFact("source", 0, 1); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	wantFacts(t, e, "control", [][]Value{{1, 1}, {1, 2}, {1, 3}, {1, 4}})
}

func TestRunPlannedPlanCacheAndReuse(t *testing.T) {
	e := buildClosure(t)
	mustRun(t, e)
	count := e.Count("path")
	mustRun(t, e)
	if e.Count("path") != count {
		t.Fatal("re-running the fixpoint changed the result")
	}
}

func TestQueryGoalDirectedChain(t *testing.T) {
	// A chain 0 -> 1 -> ... -> 9 fully owned: every prefix controls every
	// suffix. The global fixpoint (all sources) derives 55 control tuples; a
	// single-pair query must derive strictly fewer.
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	solver, err := NewCCPSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	// Global fixpoint over the same facts and rules, in a separate engine so
	// the solver's relations stay untouched.
	globalEngine, err := NewCCPSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, globalEngine.Engine())
	globalTuples := globalEngine.Engine().Count("control")
	if globalTuples != 55 {
		t.Fatalf("global fixpoint derived %d tuples, want 55", globalTuples)
	}

	ok, x, err := solver.ControlsExplain(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("control(0,9) not derived")
	}
	if x.Derived >= globalTuples {
		t.Fatalf("goal-directed query derived %d tuples, global fixpoint %d — no restriction", x.Derived, globalTuples)
	}
	if x.Adornment != "bb" {
		t.Fatalf("adornment = %q, want bb", x.Adornment)
	}
	// Negative query: last node controls nothing upstream.
	ok, err = solver.Controls(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("control(9,0) derived")
	}
}

func TestQueryControlledSetMatchesSemiNaive(t *testing.T) {
	g := graph.New(6)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{0, 1, 0.6}, {1, 2, 0.3}, {0, 2, 0.3}, {2, 3, 0.9}, {4, 5, 0.8}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	solver, err := NewCCPSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	for s := graph.NodeID(0); s < 6; s++ {
		want, err := ControlledSet(g, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solver.ControlledSet(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("s=%d: controlled set size %d vs %d", s, len(got), len(want))
		}
		for v := range want {
			if !got.Has(v) {
				t.Fatalf("s=%d: missing %d", s, v)
			}
		}
	}
}

func TestExplainContents(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	solver, err := NewCCPSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	_, x, err := solver.ControlsExplain(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := x.String()
	for _, want := range []string{"adornment: bb", "Δ", "[idx", "matches:", "control^"} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain output missing %q:\n%s", want, s)
		}
	}
	if len(x.Rules) == 0 {
		t.Fatal("explain has no rules")
	}
	for _, r := range x.Rules {
		if len(r.Orders) == 0 {
			t.Fatalf("rule %q has no join orders", r.Rule)
		}
	}
}

func TestQueryEDBFastPath(t *testing.T) {
	e := NewEngine()
	if err := e.Relation("edge", 2, false); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]Value{{1, 2}, {1, 3}, {2, 3}} {
		if err := e.AddFact("edge", 0, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Query("edge", C(1), V("y"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Derived || len(res.Tuples) != 2 {
		t.Fatalf("edge(1,y)? = %v tuples %v", res.Derived, res.Tuples)
	}
	res, err = e.Query("edge", C(3), V("y"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived {
		t.Fatal("edge(3,y)? derived")
	}
	// Repeated variable: only tuples with equal columns match.
	res, err = e.Query("edge", V("x"), V("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived {
		t.Fatalf("edge(x,x)? = %v", res.Tuples)
	}
}

func TestQuerySeesAssertedIDBFacts(t *testing.T) {
	// Facts asserted directly into an IDB relation must flow through the
	// magic base-copy rule into adorned answers.
	e := NewEngine()
	if err := e.Relation("edge", 2, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("path", 2, false); err != nil {
		t.Fatal(err)
	}
	mustRule(t, e, Rule{
		Head: Atom{Pred: "path", Terms: []Term{V("x"), V("z")}},
		Body: []Atom{
			{Pred: "path", Terms: []Term{V("x"), V("y")}},
			{Pred: "edge", Terms: []Term{V("y"), V("z")}},
		},
	})
	if err := e.AddFact("path", 0, 7, 8); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", 0, 8, 9); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("path", C(7), C(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Derived {
		t.Fatal("path(7,9) not derived from asserted IDB fact")
	}
	res, err = e.Query("path", C(8), C(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived {
		t.Fatal("path(8,9) derived without a base fact")
	}
}

func TestQueryPreservesWeightedIDBFacts(t *testing.T) {
	// A weighted IDB relation: asserted facts keep their weights through the
	// base-copy rule, so downstream aggregates see them.
	e := NewEngine()
	if err := e.Relation("own", 2, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("big", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("link", 2, true); err != nil {
		t.Fatal(err)
	}
	// link is IDB (derived from own) but also has asserted facts.
	mustRule(t, e, Rule{
		Head: Atom{Pred: "link", Terms: []Term{V("x"), V("y")}},
		Body: []Atom{{Pred: "own", Terms: []Term{V("x"), V("y")}, WeightVar: "w"}},
	})
	mustRule(t, e, Rule{
		Head: Atom{Pred: "big", Terms: []Term{V("y")}},
		Body: []Atom{{Pred: "link", Terms: []Term{V("x"), V("y")}, WeightVar: "w"}},
		Agg:  &MSum{WeightVar: "w", ContribVar: "x", Threshold: 0.5},
	})
	if err := e.AddFact("link", 0.7, 1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("big", C(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Derived {
		t.Fatal("asserted weighted IDB fact lost its weight through the copy rule")
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := graph.New(32)
	for i := 0; i < 31; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	solver, err := NewCCPSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s := graph.NodeID((w + i) % 32)
				tgt := graph.NodeID((w * i) % 32)
				got, err := solver.Controls(s, tgt)
				if err != nil {
					errs <- err
					return
				}
				if want := s <= tgt; got != want {
					errs <- fmt.Errorf("control(%d,%d) = %v, want %v", s, tgt, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
