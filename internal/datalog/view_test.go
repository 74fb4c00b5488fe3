package datalog

import (
	"runtime"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// TestBindGraphCopiesNothing: binding reads the graph in place, so a graph
// ten times larger costs the same allocations — in count and in bytes — to
// bind.
func TestBindGraphCopiesNothing(t *testing.T) {
	cost := func(edges int) (allocs, bytes float64) {
		g := gen.Random(edges/2, edges, 1)
		if g.NumEdges() < edges*9/10 {
			t.Fatalf("generator gave %d edges, want about %d", g.NumEdges(), edges)
		}
		bind := func() {
			if err := NewEngine().BindGraph("own", g); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(20, bind)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			bind()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20
	}
	smallAllocs, smallBytes := cost(1_000)
	largeAllocs, largeBytes := cost(10_000)
	if smallAllocs != largeAllocs || largeBytes > smallBytes+1024 {
		t.Fatalf("binding 1000 edges: %v allocs, %v B; 10000 edges: %v allocs, %v B",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}

// TestBoundRelationIsReadOnly: every way of writing into a bound relation
// is an error that leaves the relation — the graph — as it was.
func TestBoundRelationIsReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(e *Engine) error
	}{
		{"AddFact", func(e *Engine) error { return e.AddFact("own", 0.5, 0, 2) }},
		{"AddRule", func(e *Engine) error {
			return e.AddRule(Rule{
				Head: Atom{Pred: "own", Terms: []Term{V("x"), V("y")}},
				Body: []Atom{{Pred: "own", Terms: []Term{V("y"), V("x")}}},
			})
		}},
		{"Load fact", func(e *Engine) error { return e.Load(`own(0, 2) @ 0.5.`) }},
		{"Load rule", func(e *Engine) error { return e.Load(`own(x, y) :- own(y, x).`) }},
		{"Relation", func(e *Engine) error { return e.Relation("own", 2, true) }},
		{"BindGraph", func(e *Engine) error { return e.BindGraph("own", graph.New(1)) }},
	} {
		g := graph.New(3)
		if err := g.AddEdge(0, 1, 0.6); err != nil {
			t.Fatal(err)
		}
		e := NewEngine()
		if err := e.BindGraph("own", g); err != nil {
			t.Fatal(err)
		}
		if err := tc.write(e); err == nil {
			t.Errorf("%s: write into a bound relation accepted", tc.name)
		}
		if g.NumEdges() != 1 || e.Count("own") != 1 || e.Has("own", 0, 2) || !e.Has("own", 0, 1) {
			t.Errorf("%s: bound relation changed: %v", tc.name, e.Facts("own"))
		}
		e.Run()
		if e.Count("own") != 1 {
			t.Errorf("%s: Run after the rejected write changed the bound relation: %v", tc.name, e.Facts("own"))
		}
	}
}

// TestGraphViewAccessPaths exercises each way the evaluator reads a view: a
// known first position (stakes held), a known second one (shareholders), a
// scan, membership, and constants that name no company: 2^32 (which would
// truncate to company 0) and -1 in either position.
func TestGraphViewAccessPaths(t *testing.T) {
	g := graph.New(4)
	for _, ed := range []graph.Edge{{From: 0, To: 1, Weight: 0.6}, {From: 0, To: 2, Weight: 0.3}, {From: 3, To: 2, Weight: 0.7}} {
		if err := g.AddEdge(ed.From, ed.To, ed.Weight); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine()
	if err := e.BindGraph("own", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(`
held(z) :- own(0, z).
holder(y) :- own(y, 2).
big(y, z) :- own(y, z) @ w, msum(w, <y>) > 0.5.
far(z) :- own(4294967296, z).
farHolder(y) :- own(y, 4294967296).
negative(z) :- own(-1, z).
`); err != nil {
		t.Fatal(err)
	}
	_, x := e.Run()
	// A known first position reads the company's stakes (EachOut), a known
	// second one its shareholders (EachIn), and an id outside the range
	// reads nothing; only big, with neither known, reads every stake.
	for i, want := range []int{2, 2, 3, 0, 0, 0} {
		if got := x.Rules[i].Reads; got != want {
			t.Errorf("%s read %d tuples, want %d", x.Rules[i].Rule, got, want)
		}
	}
	wantFacts(t, e, "held", [][]Value{{1}, {2}})
	wantFacts(t, e, "holder", [][]Value{{0}, {3}})
	wantFacts(t, e, "big", [][]Value{{0, 1}, {3, 2}})
	wantFacts(t, e, "own", [][]Value{{0, 1}, {0, 2}, {3, 2}})
	for _, rel := range []string{"far", "farHolder", "negative"} {
		if e.Count(rel) != 0 {
			t.Fatalf("%s: a probe outside the id range matched %v", rel, e.Facts(rel))
		}
	}
	far := Value(1) << 32 // truncates to company 0
	if e.Has("own", far, 1) || e.Has("own", 0, 1, 2) || !e.Has("own", 3, 2) {
		t.Fatal("view membership wrong")
	}
}
