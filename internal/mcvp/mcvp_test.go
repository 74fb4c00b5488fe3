package mcvp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/control"
	"ccp/internal/graph"
)

func TestEvalBasics(t *testing.T) {
	// (1 AND 0) OR 1
	c := &Circuit{
		Gates: []Gate{
			{Kind: Input, Value: true},
			{Kind: Input, Value: false},
			{Kind: Input, Value: true},
			{Kind: And, A: 0, B: 1},
			{Kind: Or, A: 3, B: 2},
		},
		Output: 4,
	}
	v, err := c.Eval()
	if err != nil || !v {
		t.Fatalf("Eval = %v, %v", v, err)
	}
	c.Gates[2].Value = false
	if v, _ := c.Eval(); v {
		t.Fatal("circuit should now be false")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Circuit{
		{},
		{Gates: []Gate{{Kind: Input}}, Output: 5},
		{Gates: []Gate{{Kind: And, A: 0, B: 0}}, Output: 0},                // reads itself
		{Gates: []Gate{{Kind: Input}, {Kind: And, A: 0, B: 1}}, Output: 1}, // forward ref
		{Gates: []Gate{{Kind: Kind(9)}}, Output: 0},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad circuit %d accepted", i)
		}
	}
	good := &Circuit{Gates: []Gate{{Kind: Input, Value: true}}, Output: 0}
	if err := good.validate(); err != nil {
		t.Errorf("good circuit rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Input.String() != "input" || And.String() != "and" || Or.String() != "or" || Kind(7).String() != "?" {
		t.Fatal("Kind.String broken")
	}
}

func TestToCCPFigure2Shapes(t *testing.T) {
	// and(x=1, y=1)
	c := &Circuit{
		Gates: []Gate{
			{Kind: Input, Value: true},
			{Kind: Input, Value: true},
			{Kind: And, A: 0, B: 1},
		},
		Output: 2,
	}
	g, s, tt, err := ToCCP(c)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.Label(s, 0); !ok || w != 1 {
		t.Fatalf("input-1 edge: %g %v", w, ok)
	}
	if w, ok := g.Label(0, 2); !ok || w != 0.5 {
		t.Fatalf("and edge: %g %v", w, ok)
	}
	if !control.CBE(g, control.Query{S: s, T: tt}) {
		t.Fatal("s should control the and gate")
	}
	// Setting one input to 0 removes its s-edge and breaks control.
	c.Gates[1].Value = false
	g2, s2, t2, err := ToCCP(c)
	if err != nil {
		t.Fatal(err)
	}
	if control.CBE(g2, control.Query{S: s2, T: t2}) {
		t.Fatal("and(1,0) must not be controlled")
	}
	// or(x=0, y=1): 0.4 from s plus 0.2 from y.
	c2 := &Circuit{
		Gates: []Gate{
			{Kind: Input, Value: false},
			{Kind: Input, Value: true},
			{Kind: Or, A: 0, B: 1},
		},
		Output: 2,
	}
	g3, s3, t3, err := ToCCP(c2)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g3.Label(s3, 2); !ok || w != 0.4 {
		t.Fatalf("or s-edge: %g %v", w, ok)
	}
	if !control.CBE(g3, control.Query{S: s3, T: t3}) {
		t.Fatal("or(0,1) must be controlled")
	}
}

func TestToCCPDuplicateInputGate(t *testing.T) {
	// and(a, a) == a, or(a, a) == a: merged parallel edges must preserve it.
	for _, kind := range []Kind{And, Or} {
		for _, val := range []bool{true, false} {
			c := &Circuit{
				Gates: []Gate{
					{Kind: Input, Value: val},
					{Kind: kind, A: 0, B: 0},
				},
				Output: 1,
			}
			want, err := c.Eval()
			if err != nil {
				t.Fatal(err)
			}
			g, s, tt, err := ToCCP(c)
			if err != nil {
				t.Fatal(err)
			}
			if got := control.CBE(g, control.Query{S: s, T: tt}); got != want {
				t.Fatalf("%v(a,a) with a=%v: CCP=%v want %v", kind, val, got, want)
			}
		}
	}
}

func TestToCCPSparsity(t *testing.T) {
	// Theorem 2: the reduction output has fewer than 3x more edges than
	// nodes and is acyclic.
	rng := rand.New(rand.NewSource(1))
	c := Random(500, rng)
	g, _, _, err := ToCCP(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() >= 3*g.NumNodes() {
		t.Fatalf("%d edges on %d nodes: not sparse", g.NumEdges(), g.NumNodes())
	}
	if v, err := g.CheckOwnership(); err != nil {
		t.Fatalf("ownership invariant at %d: %v", v, err)
	}
}

// TestQuickReductionCorrectness is the executable Theorem 2: for random
// monotone circuits, the circuit value equals the CCP answer on the reduced
// instance — under CBE and under the parallel reduction alike.
func TestQuickReductionCorrectness(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Random(2+int(nn%80), rng)
		want, err := c.Eval()
		if err != nil {
			return false
		}
		g, s, tt, err := ToCCP(c)
		if err != nil {
			return false
		}
		q := control.Query{S: s, T: tt}
		if control.CBE(g, q) != want {
			return false
		}
		res, rerr := control.ParallelReduction(context.Background(), g.Clone(), q, graph.NewNodeSet(s, tt),
			control.Options{Workers: 4, Trust: control.FullTrust})
		return rerr == nil && res.Ans != control.Unknown && res.Ans.Bool() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
