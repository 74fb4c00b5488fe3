package datalog

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestLoadControlProgramText(t *testing.T) {
	e := NewEngine()
	src := ProgramText() + `
own(0, 1) @ 0.6.
own(0, 2) @ 0.6.
own(1, 3) @ 0.3.
own(2, 3) @ 0.3.
source(0).
`
	if err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	for _, want := range [][2]Value{{0, 0}, {0, 1}, {0, 2}, {0, 3}} {
		if !e.Has("control", want[0], want[1]) {
			t.Fatalf("control%v not derived", want)
		}
	}
	if e.Count("control") != 4 {
		t.Fatalf("control count = %d", e.Count("control"))
	}
}

// TestLoadMatchesStructAPI checks the graph view against a stored own
// relation: the program run over g bound in place (Controls) and the same
// text with g's stakes written out as ground facts must agree.
func TestLoadMatchesStructAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		g := gen.Random(n, rng.Intn(3*n), rng.Int63())
		s := graph.NodeID(rng.Intn(n))
		tgt := graph.NodeID((int(s) + 1) % n)

		want, err := Controls(g, s, tgt)
		if err != nil {
			t.Fatal(err)
		}

		var src strings.Builder
		src.WriteString(ProgramText())
		for _, ed := range g.Edges() {
			fmt.Fprintf(&src, "own(%d, %d) @ %s.\n", ed.From, ed.To, strconv.FormatFloat(ed.Weight, 'g', -1, 64))
		}
		fmt.Fprintf(&src, "source(%d).\n", s)
		e := NewEngine()
		if err := e.Load(src.String()); err != nil {
			t.Fatal(err)
		}
		mustRun(t, e)
		if got := e.Has("control", Value(s), Value(tgt)); got != want {
			t.Fatalf("trial %d: stored own facts %v, bound graph %v", trial, got, want)
		}
	}
}

func TestLoadFactsAndComments(t *testing.T) {
	e := NewEngine()
	src := `
% transitive closure
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
edge(1, 2).   % a chain
edge(2, 3).
`
	if err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if !e.Has("path", 1, 3) {
		t.Fatal("closure via text program failed")
	}
}

func TestLoadNegativeConstants(t *testing.T) {
	e := NewEngine()
	if err := e.Load(`f(-3). g(x) :- f(x).`); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if !e.Has("g", -3) {
		t.Fatal("negative constant lost")
	}
}

func TestLoadSyntaxErrors(t *testing.T) {
	bad := []string{
		`p(x`,                           // unterminated atom
		`p(x) :-`,                       // empty body
		`p(x) :- q(x)`,                  // missing '.'
		`p(x,y) :- q(x). p(x) :- q(x).`, // arity conflict
		`p(1.5).`,                       // non-integer constant
		`p(x) :- q(x), msum(w, <y>) > 0.5, msum(w, <y>) > 0.5.`, // two aggregates
		`p(x) q(x).`,                  // missing operator
		`p(x) :- msum(w y) > 0.5.`,    // malformed msum
		`p(x) :- q(x) @ .`,            // missing weight var
		`?(x).`,                       // bad predicate
		`p(1) :- msum(w, <y>) > 0.5.`, // an aggregate with no body atom
	}
	for i, src := range bad {
		e := NewEngine()
		if err := e.Load(src); err == nil {
			t.Errorf("bad program %d accepted: %q", i, src)
		}
	}
}

func TestLoadVariableInFactRejected(t *testing.T) {
	e := NewEngine()
	if err := e.Load(`p(x).`); err == nil {
		t.Fatal("fact with variable accepted")
	}
}

func TestLoadIntoPredeclaredEngine(t *testing.T) {
	e := NewEngine()
	if err := e.Relation("edge", 2, false); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", 0, 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(`path(x, y) :- edge(x, y).`); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if !e.Has("path", 5, 6) {
		t.Fatal("pre-declared relation not joined")
	}
	// Conflicting re-declaration is rejected.
	if err := e.Load(`edge(1).`); err == nil {
		t.Fatal("arity conflict with declared relation accepted")
	}
}

// loadFragments are structured fragments that once looked plausible to
// mis-parse.
var loadFragments = []string{
	"p(", ")", ":-", "msum", "msum(", "p(x)@", "p(x)@1e9.",
	"p(x):-msum(w,<y>)>", "p(x):-q(y),", "....", "p()", "@",
	"p(x) :- q(x) @ w, msum(w, <x>) > -0.5.",
}

// TestQuickLoadNeverPanics feeds the parser random byte soup; it must
// return errors, never panic.
func TestQuickLoadNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		e := NewEngine()
		_ = e.Load(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, src := range loadFragments {
		e := NewEngine()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Load(%q) panicked: %v", src, r)
				}
			}()
			_ = e.Load(src)
		}()
	}
}

// FuzzLoad runs fuzzed program text the way ccpctl datalog -program does:
// Load over an engine with a small graph bound as own, then Run. Neither may
// panic, and no statement may write into own: whenever the text asserts an
// own fact or derives own in a rule head — read from an engine where own is
// an ordinary relation — the bound engine's Load must refuse it, and the
// view must still be the graph after Run.
func FuzzLoad(f *testing.F) {
	f.Add(ProgramText())
	f.Add("own(0, 2) @ 0.5.")
	f.Add("own(x, y) :- own(y, x).")
	for _, src := range loadFragments {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g := graph.New(4)
		for _, ed := range []graph.Edge{{From: 0, To: 1, Weight: 0.6}, {From: 1, To: 2, Weight: 0.3}, {From: 3, To: 2, Weight: 0.3}} {
			if err := g.AddEdge(ed.From, ed.To, ed.Weight); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEngine()
		if err := e.BindGraph("own", g); err != nil {
			t.Fatal(err)
		}
		err := e.Load(src)
		free := NewEngine()
		if err == nil && free.Load(src) == nil && writesOwn(free) {
			t.Fatalf("Load accepted a write into the bound own: %q", src)
		}
		e.Run()
		if g.NumEdges() != 3 || e.Count("own") != 3 || e.Has("own", 0, 2) {
			t.Fatalf("own changed under %q: %v", src, e.Facts("own"))
		}
	})
}

// writesOwn reports whether e holds own facts or a rule deriving own.
func writesOwn(e *Engine) bool {
	if e.Count("own") > 0 {
		return true
	}
	for _, r := range e.rules {
		if r.Head.Pred == "own" {
			return true
		}
	}
	return false
}
