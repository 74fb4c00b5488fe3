package datalog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestRelationDeclaration(t *testing.T) {
	e := NewEngine()
	if err := e.Relation("edge", 2, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("edge", 2, false); err == nil {
		t.Fatal("duplicate declaration accepted")
	}
	if err := e.Relation("bad", 0, false); err == nil {
		t.Fatal("zero arity accepted")
	}
	if err := e.AddFact("edge", 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", 0, 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := e.AddFact("nope", 0, 1); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestRuleValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Relation("e", 2, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("w", 2, true); err != nil {
		t.Fatal(err)
	}
	bad := []Rule{
		{Head: Atom{Pred: "zzz", Terms: []Term{V("x")}}, Body: []Atom{{Pred: "e", Terms: []Term{V("x"), V("y")}}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x")}}, Body: []Atom{{Pred: "e", Terms: []Term{V("x"), V("y")}}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("y")}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("z")}}, Body: []Atom{{Pred: "e", Terms: []Term{V("x"), V("y")}}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("y")}}, Body: []Atom{{Pred: "zzz", Terms: []Term{V("x"), V("y")}}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("y")}}, Body: []Atom{{Pred: "e", Terms: []Term{V("x"), V("y")}, WeightVar: "w"}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "e", Terms: []Term{V("x"), V("y")}}},
			Agg:  &MSum{WeightVar: "nope", ContribVar: "y"}},
		// A weight variable is not a tuple variable, nor the reverse.
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("v")}},
			Body: []Atom{{Pred: "w", Terms: []Term{V("x"), V("y")}, WeightVar: "v"}}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "w", Terms: []Term{V("x"), V("y")}, WeightVar: "v"}},
			Agg:  &MSum{WeightVar: "y", ContribVar: "x"}},
		{Head: Atom{Pred: "e", Terms: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "w", Terms: []Term{V("x"), V("y")}, WeightVar: "v"}},
			Agg:  &MSum{WeightVar: "v", ContribVar: "v"}},
	}
	for i, r := range bad {
		if err := e.AddRule(r); err == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
}

// TestTransitiveClosure exercises plain recursion without aggregates.
func TestTransitiveClosure(t *testing.T) {
	e := NewEngine()
	for _, d := range []struct {
		name  string
		arity int
	}{{"edge", 2}, {"path", 2}} {
		if err := e.Relation(d.name, d.arity, false); err != nil {
			t.Fatal(err)
		}
	}
	// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
	if err := e.AddRule(Rule{
		Head: Atom{Pred: "path", Terms: []Term{V("x"), V("y")}},
		Body: []Atom{{Pred: "edge", Terms: []Term{V("x"), V("y")}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{
		Head: Atom{Pred: "path", Terms: []Term{V("x"), V("z")}},
		Body: []Atom{
			{Pred: "path", Terms: []Term{V("x"), V("y")}},
			{Pred: "edge", Terms: []Term{V("y"), V("z")}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// A chain 0 -> 1 -> 2 -> 3 plus a cycle 3 -> 0.
	for _, p := range [][2]Value{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := e.AddFact("edge", 0, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	iters := mustRun(t, e)
	if iters < 2 {
		t.Fatalf("iterations = %d", iters)
	}
	// Full closure on a 4-cycle: every pair reachable.
	if e.Count("path") != 16 {
		t.Fatalf("path count = %d, want 16", e.Count("path"))
	}
	if !e.Has("path", 0, 0) || !e.Has("path", 2, 1) {
		t.Fatal("closure incomplete")
	}
	// Re-running is a no-op fixpoint.
	before := e.Count("path")
	mustRun(t, e)
	if e.Count("path") != before {
		t.Fatal("fixpoint not stable")
	}
}

func TestConstantsInRules(t *testing.T) {
	e := NewEngine()
	if err := e.Relation("edge", 2, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("fromZero", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{
		Head: Atom{Pred: "fromZero", Terms: []Term{V("y")}},
		Body: []Atom{{Pred: "edge", Terms: []Term{C(0), V("y")}}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]Value{{0, 1}, {0, 2}, {3, 4}} {
		if err := e.AddFact("edge", 0, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, e)
	if e.Count("fromZero") != 2 || !e.Has("fromZero", 1) || !e.Has("fromZero", 2) {
		t.Fatalf("fromZero = %v", e.Facts("fromZero"))
	}
}

func TestMSumCountsContributorsOnce(t *testing.T) {
	// sum of weights of edges into z from members of a set, each member
	// counted once even if derivable twice.
	e := NewEngine()
	if err := e.Relation("member", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("own", 2, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Relation("ctl", 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{
		Head: Atom{Pred: "ctl", Terms: []Term{V("z")}},
		Body: []Atom{
			{Pred: "member", Terms: []Term{V("y")}},
			{Pred: "own", Terms: []Term{V("y"), V("z")}, WeightVar: "w"},
		},
		Agg: &MSum{WeightVar: "w", ContribVar: "y", Threshold: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("member", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("member", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("own", 0.3, 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("own", 0.3, 2, 9); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("own", 0.4, 1, 8); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if !e.Has("ctl", 9) {
		t.Fatal("0.3+0.3 > 0.5 not derived")
	}
	if e.Has("ctl", 8) {
		t.Fatal("0.4 alone must not cross the threshold")
	}
}

func TestFactsDeterministicOrder(t *testing.T) {
	e := NewEngine()
	if err := e.Relation("r", 2, false); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]Value{{3, 1}, {1, 2}, {1, 1}, {2, 0}} {
		if err := e.AddFact("r", 0, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	f := e.Facts("r")
	want := [][2]Value{{1, 1}, {1, 2}, {2, 0}, {3, 1}}
	for i := range want {
		if f[i][0] != want[i][0] || f[i][1] != want[i][1] {
			t.Fatalf("facts = %v", f)
		}
	}
	if e.Facts("unknown") != nil {
		t.Fatal("unknown relation should return nil")
	}
}

func TestControlProgramDiamond(t *testing.T) {
	g := graph.New(4)
	for _, e := range []graph.Edge{
		{From: 0, To: 1, Weight: 0.6},
		{From: 0, To: 2, Weight: 0.6},
		{From: 1, To: 3, Weight: 0.3},
		{From: 2, To: 3, Weight: 0.3},
	} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Controls(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("datalog missed indirect control")
	}
	set, err := ControlledSet(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("controlled set = %v", set)
	}
}

// TestQuickDatalogMatchesCBE: the declarative program and the procedural
// algorithm agree on random ownership graphs.
func TestQuickDatalogMatchesCBE(t *testing.T) {
	f := func(seed int64, nn, mm, ss, tt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%25)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		s := graph.NodeID(int(ss) % n)
		tgt := graph.NodeID(int(tt) % n)
		want := control.CBE(g, control.Query{S: s, T: tgt})
		got, err := Controls(g, s, tgt)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
