package datalog

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ccp/internal/control"
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
	iters, _ := e.Run()
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
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s = %v, want %v", rel, got, want)
		}
	}
}

func TestRunCycleClosureFacts(t *testing.T) {
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

func TestRunMSumOverBoundGraph(t *testing.T) {
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

// TestRunTwiceIsFixpoint: Run compiles afresh on every call and derives into
// the engine's relations, so a second Run starts from the fixpoint and adds
// nothing.
func TestRunTwiceIsFixpoint(t *testing.T) {
	e := buildClosure(t)
	mustRun(t, e)
	count := e.Count("path")
	mustRun(t, e)
	if e.Count("path") != count {
		t.Fatal("re-running the fixpoint changed the result")
	}
}

// TestQueryControlledSetMatchesSemiNaive: the program's Control(s, ·) row
// is control.ControlledSet for every source of random graphs, and of a graph
// with a dead company, which controls nothing in either.
func TestQueryControlledSetMatchesSemiNaive(t *testing.T) {
	dead := graph.New(6)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{0, 1, 0.6}, {1, 2, 0.3}, {0, 2, 0.3}, {2, 3, 0.9}, {4, 5, 0.8}} {
		if err := dead.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	if !dead.RemoveNode(5) {
		t.Fatal("company 5 not removed")
	}
	graphs := []*graph.Graph{dead}
	for seed := int64(0); seed < 40; seed++ {
		graphs = append(graphs, dyadicGraph(rand.New(rand.NewSource(seed))))
	}
	for i, g := range graphs {
		for s := graph.NodeID(0); int(s) < g.Cap(); s++ {
			got, err := ControlledSet(g, s)
			if err != nil {
				t.Fatal(err)
			}
			want := control.ControlledSet(g, s)
			if len(got) != len(want) {
				t.Fatalf("graph %d, s=%d: datalog controls %v, control.ControlledSet %v", i, s, got, want)
			}
			for v := range want {
				if !got.Has(v) {
					t.Fatalf("graph %d, s=%d: datalog misses %d of %v", i, s, v, want)
				}
			}
		}
	}
}

// TestExplainContents: ControlsExplain reports the goal, the rounds to the
// fixpoint, and each rule of the program with the rows its joins produced
// and the tuples it derived.
func TestExplainContents(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	ok, x, err := ControlsExplain(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("control(0,2) not derived")
	}
	s := x.String()
	// Round one derives control(0,0) and, as the recursive rule reads
	// control after the first rule wrote it, control(0,1). Round two joins
	// both again and derives control(0,2); round three finds nothing new.
	for _, want := range []string{
		"goal: control(0,2)?\nrounds: 3  derived: 3\n",
		"rule: control(x,x) :- source(x).\n  reads: 1  matches: 1  derived: 1\n",
		"rule: control(x,z) :- control(x,y), own(y,z)@w, msum(w,<y>) > 0.5",
		"  reads: 7  matches: 3  derived: 2\n",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain output missing %q:\n%s", want, s)
		}
	}
	if len(x.Rules) != 2 || x.Iterations != 3 || x.Derived != 3 || x.Rules[1].Matches != 3 || x.Rules[1].Derived != 2 {
		t.Fatalf("explain = %+v, want 3 rounds, 3 derived, and the recursive rule at 3 matches and 2 derived", x)
	}
}

// TestSemiNaiveLinearInDepth counts work, not time: on an n-company chain
// of 0.6 stakes, a round joins only the control tuples the round before
// derived, so the recursive rule matches about once per company. Joining
// whole relations every round would match about n²/2 times. The chain sits
// beside 4n stakes the source does not reach, and the rule reads own
// through each controlled company's stakes (EachOut), so it reads about
// twice per company; scanning every stake per control tuple would read
// about 5n² times.
func TestSemiNaiveLinearInDepth(t *testing.T) {
	const n = 2000
	g := graph.New(2 * n)
	for v := graph.NodeID(1); v < n; v++ {
		if err := g.AddEdge(v-1, v, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	for v := graph.NodeID(n); v < 2*n; v++ {
		for k := graph.NodeID(1); k <= 4; k++ {
			if err := g.AddEdge(v, n+(v-n+k)%n, 0.2); err != nil {
				t.Fatal(err)
			}
		}
	}
	ok, x, err := ControlsExplain(g, 0, n-1)
	if err != nil || !ok {
		t.Fatalf("control(0,%d) = %v, %v", n-1, ok, err)
	}
	if m := x.Rules[1].Matches; m > 2*n {
		t.Fatalf("the recursive rule matched %d times on a %d-company chain, want at most %d", m, n, 2*n)
	}
	if r := x.Rules[1].Reads; r > 3*n {
		t.Fatalf("the recursive rule read %d tuples on a %d-company chain beside %d other stakes, want at most %d", r, n, 4*n, 3*n)
	}
}
