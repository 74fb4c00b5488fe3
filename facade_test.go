package ccp_test

import (
	"context"
	"strings"
	"testing"

	"ccp"
	"ccp/internal/control"
)

func TestFromEdges(t *testing.T) {
	g, err := ccp.FromEdges(3, []ccp.Edge{
		{From: 0, To: 1, Weight: 0.4},
		{From: 0, To: 1, Weight: 0.3}, // merges to 0.7
		{From: 1, To: 2, Weight: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ccp.Controls(g, 0, 2) {
		t.Fatal("merged stakes should give control")
	}
	if _, err := ccp.FromEdges(2, []ccp.Edge{{From: 0, To: 9, Weight: 0.5}}); err == nil {
		t.Fatal("bad edge accepted")
	}
}

func TestExplainFacade(t *testing.T) {
	g := holding(t)
	steps, ok := ccp.Explain(g, 0, 3)
	if !ok || len(steps) == 0 {
		t.Fatalf("steps=%v ok=%v", steps, ok)
	}
	if steps[len(steps)-1].Company != 3 {
		t.Fatalf("witness must end at t: %v", steps)
	}
	if _, ok := ccp.Explain(g, 1, 0); ok {
		t.Fatal("no control, no witness")
	}
}

func TestReadWriteFacades(t *testing.T) {
	g := holding(t)
	var bin, csv strings.Builder
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	gb, err := ccp.ReadBinaryGraph(strings.NewReader(bin.String()))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := ccp.ReadCSVGraph(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if gb.NumEdges() != g.NumEdges() || gc.NumEdges() != g.NumEdges() {
		t.Fatal("round trips lost edges")
	}
}

func TestGraphStringer(t *testing.T) {
	g := ccp.NewGraph(2)
	if s := g.String(); !strings.Contains(s, "nodes=2") {
		t.Fatalf("String = %s", s)
	}
}

func TestControlGroupsFacade(t *testing.T) {
	g := ccp.GenerateItalian(ccp.ItalianConfig{Nodes: 20_000, Seed: 9})
	groups := ccp.ControlGroups(g)
	if len(groups) == 0 {
		t.Fatal("no control groups in an Italian-like graph")
	}
	for i := 1; i < len(groups); i++ {
		if len(groups[i].Members) > len(groups[i-1].Members) {
			t.Fatal("groups not ordered by size")
		}
	}
	// The head genuinely controls a member.
	gr := groups[0]
	for _, m := range gr.Members[:minInt(len(gr.Members), 5)] {
		if m != gr.Head && !ccp.Controls(g, gr.Head, m) {
			t.Fatalf("head %d does not control member %d", gr.Head, m)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// reduceExhaustively runs the parallel reduction of q_c(s, t) on a copy of g
// with early termination disabled: the rules run to exhaustion, leaving the
// smallest control-equivalent graph over {s, t}.
func reduceExhaustively(t *testing.T, g *ccp.Graph, s, tt ccp.NodeID, workers int) control.Result {
	t.Helper()
	res, err := control.ParallelReduction(context.Background(), g.Clone(), ccp.Query{S: s, T: tt},
		ccp.NewNodeSet(s, tt), control.Options{Workers: workers, Trust: control.FullTrust, DisableTermination: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExhaustiveReductionShrinksFurther(t *testing.T) {
	// Reduce may answer via T3 after one contraction; the exhaustive
	// reduction keeps going down to a handful of nodes.
	g := ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: 4000, AvgOutDegree: 2, Seed: 61})
	s, tt := ccp.NodeID(0), ccp.NodeID(3999)
	quick, err := ccp.Reduce(context.Background(), g, s, tt, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := reduceExhaustively(t, g, s, tt, 2)
	if !quick.Decided || full.Ans == control.Unknown {
		t.Fatalf("undecided: %v %v", quick.Decided, full.Ans)
	}
	if want := ccp.Controls(g, s, tt); quick.Controls != want || (full.Ans == control.True) != want {
		t.Fatalf("reduce %v, exhaustive %v, CBE %v", quick.Controls, full.Ans, want)
	}
	if full.Reduced.NumNodes() > quick.Reduced.NumNodes() {
		t.Fatalf("exhaustive left more nodes (%d) than early-exit (%d)",
			full.Reduced.NumNodes(), quick.Reduced.NumNodes())
	}
	if full.Reduced.NumNodes() > 40 {
		t.Fatalf("exhaustive reduction left %d nodes", full.Reduced.NumNodes())
	}
}
