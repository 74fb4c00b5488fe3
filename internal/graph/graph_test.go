package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// build constructs a graph with n nodes and the given (from, to, weight)
// triples, failing the test on any error.
func build(t *testing.T, n int, edges ...Edge) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.NumNodes() != 5 || g.NumEdges() != 0 || g.Cap() != 5 {
		t.Fatalf("got %v", g)
	}
	for i := 0; i < 5; i++ {
		if !g.Alive(NodeID(i)) {
			t.Fatalf("node %d should be alive", i)
		}
	}
	if g.Alive(5) || g.Alive(-1) || g.Alive(None) {
		t.Fatal("out-of-range ids must not be alive")
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := New(3)
	cases := []struct {
		name    string
		u, v    NodeID
		w       float64
		wantErr bool
	}{
		{"ok", 0, 1, 0.5, false},
		{"self loop", 1, 1, 0.3, true},
		{"zero weight", 0, 2, 0, true},
		{"negative weight", 0, 2, -0.1, true},
		{"weight above one", 0, 2, 1.01, true},
		{"nan weight", 0, 2, math.NaN(), true},
		{"dead endpoint", 0, 7, 0.2, true},
		{"duplicate", 0, 1, 0.2, true},
		{"weight exactly one", 1, 2, 1, false},
	}
	for _, c := range cases {
		err := g.AddEdge(c.u, c.v, c.w)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: AddEdge(%d,%d,%g) err=%v, wantErr=%v", c.name, c.u, c.v, c.w, err, c.wantErr)
		}
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
}

func TestMergeEdgeSumsLabels(t *testing.T) {
	g := New(2)
	if err := g.MergeEdge(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := g.MergeEdge(0, 1, 0.4); err != nil {
		t.Fatal(err)
	}
	w, ok := g.Label(0, 1)
	if !ok || math.Abs(w-0.7) > 1e-12 {
		t.Fatalf("label = %g, %v; want 0.7", w, ok)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	// Merging is clamped at full ownership.
	if err := g.MergeEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if w, _ := g.Label(0, 1); w != 1 {
		t.Fatalf("clamped label = %g, want 1", w)
	}
}

func TestRemoveNodeCleansBothDirections(t *testing.T) {
	g := build(t, 4,
		Edge{0, 1, 0.6}, Edge{1, 2, 0.7}, Edge{3, 1, 0.2}, Edge{2, 3, 0.4})
	if !g.RemoveNode(1) {
		t.Fatal("RemoveNode(1) = false")
	}
	if g.Alive(1) {
		t.Fatal("node 1 still alive")
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (only 2->3)", g.NumEdges())
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 2) || g.HasEdge(3, 1) {
		t.Fatal("edges to removed node survived")
	}
	if g.OutDegree(0) != 0 || g.InDegree(2) != 0 {
		t.Fatal("neighbor adjacency not cleaned")
	}
	if g.RemoveNode(1) {
		t.Fatal("second RemoveNode(1) should be false")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := build(t, 3, Edge{0, 1, 0.6}, Edge{1, 2, 0.7})
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) = false")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("removing twice should be false")
	}
	if g.NumEdges() != 1 || g.InDegree(1) != 0 || g.OutDegree(0) != 0 {
		t.Fatal("adjacency inconsistent after RemoveEdge")
	}
}

func TestDegreesAndSums(t *testing.T) {
	g := build(t, 4, Edge{0, 2, 0.3}, Edge{1, 2, 0.4}, Edge{3, 2, 0.2}, Edge{2, 0, 1})
	if g.InDegree(2) != 3 || g.OutDegree(2) != 1 {
		t.Fatalf("deg(2) = in %d out %d", g.InDegree(2), g.OutDegree(2))
	}
	if s := g.InSum(2); math.Abs(s-0.9) > 1e-12 {
		t.Fatalf("InSum(2) = %g", s)
	}
	u, w := g.MaxInLabel(2)
	if u != 1 || w != 0.4 {
		t.Fatalf("MaxInLabel(2) = %d,%g", u, w)
	}
	if got := g.DirectController(2); got != None {
		t.Fatalf("DirectController(2) = %d, want None", got)
	}
	if got := g.DirectController(0); got != 2 {
		t.Fatalf("DirectController(0) = %d, want 2", got)
	}
	if u, w := g.MaxInLabel(3); u != None || w != 0 {
		t.Fatalf("MaxInLabel(3) = %d,%g", u, w)
	}
}

func TestMaxInLabelDeterministicTie(t *testing.T) {
	g := build(t, 3, Edge{1, 0, 0.3}, Edge{2, 0, 0.3})
	u, _ := g.MaxInLabel(0)
	if u != 1 {
		t.Fatalf("tie should resolve to the smaller id, got %d", u)
	}
}

// TestReviveExtendsIdSpace: Revive past the end appends live ids one by one
// or several at once (the skipped ids dead), revives a removed id, and is a
// no-op on a live one.
func TestReviveExtendsIdSpace(t *testing.T) {
	g := New(1)
	for v := NodeID(1); v < 5; v++ {
		g.Revive(v)
		if g.Cap() != int(v)+1 || g.NumNodes() != int(v)+1 {
			t.Fatalf("Revive(%d): cap %d, nodes %d", v, g.Cap(), g.NumNodes())
		}
	}
	g.RemoveNode(1)
	g.Revive(1)
	if !g.Alive(1) || g.NumNodes() != 5 {
		t.Fatal("Revive(1) failed")
	}
	g.Revive(9)
	if !g.Alive(9) || g.Cap() != 10 || g.Alive(7) {
		t.Fatalf("Revive(9): alive=%v cap=%d, 7 alive=%v", g.Alive(9), g.Cap(), g.Alive(7))
	}
	// Revive of an already-live node is a no-op.
	g.Revive(9)
	if g.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", g.NumNodes())
	}
	if err := g.AddEdge(9, 4, 0.6); err != nil || g.DirectController(4) != 9 {
		t.Fatalf("edge into a revived id: err %v, controller %d", err, g.DirectController(4))
	}
	mustAggregates(t, g)
}

func TestCheckOwnership(t *testing.T) {
	g := build(t, 3, Edge{0, 2, 0.6}, Edge{1, 2, 0.4})
	if v, err := g.CheckOwnership(); err != nil {
		t.Fatalf("valid graph flagged: %d %v", v, err)
	}
	// MergeEdge can push past 1 only through deliberate merging; build the
	// violation through a second predecessor instead.
	h := New(3)
	if err := h.AddEdge(0, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge(1, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	if v, err := h.CheckOwnership(); err == nil || v != 2 {
		t.Fatalf("violation not detected: %d %v", v, err)
	}
}

func TestClassOf(t *testing.T) {
	//       0 -0.6-> 1 -0.3-> 3
	//       0 -0.3-> 2 <-0.3- 1
	//       4 (isolated), 2 -0.4-> 4? no: keep 4 isolated; 3 also gets 0.3 from 2.
	g := build(t, 5,
		Edge{0, 1, 0.6},
		Edge{1, 3, 0.3},
		Edge{0, 2, 0.3},
		Edge{1, 2, 0.3},
		Edge{2, 3, 0.3},
	)
	cases := []struct {
		v    NodeID
		want Class
	}{
		{0, C1}, // no incoming edges
		{1, C3}, // directly controlled by 0 (0.6), has outgoing
		{2, C4}, // in-sum 0.6 > 0.5, max 0.3
		{3, C1}, // no outgoing edges
		{4, C1}, // isolated
	}
	for _, c := range cases {
		if got := g.ClassOf(c.v, false); got != c.want {
			t.Errorf("ClassOf(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := g.ClassOf(1, true); got != ClassExcluded {
		t.Errorf("excluded node classified %v", got)
	}
	// A node with in-sum exactly 0.5 is uncontrollable (C2), not C4.
	h := build(t, 4, Edge{0, 1, 0.2}, Edge{2, 1, 0.3}, Edge{1, 3, 0.1})
	if got := h.ClassOf(1, false); got != C2 {
		t.Errorf("in-sum 0.5 classified %v, want C2", got)
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{ClassExcluded: "⊥", C1: "C1", C2: "C2", C3: "C3", C4: "C4", Class(9): "C?"} {
		if c.String() != want {
			t.Errorf("%d.String() = %s", c, c.String())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := build(t, 3, Edge{0, 1, 0.6}, Edge{1, 2, 0.7})
	c := g.Clone()
	if !Equal(g, c, 0) {
		t.Fatal("clone differs")
	}
	c.RemoveNode(1)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatal("mutating clone affected original")
	}
	g.RemoveEdge(0, 1)
	if c.Alive(1) {
		t.Fatal("clone shares alive state")
	}
}

func TestEqual(t *testing.T) {
	g := build(t, 3, Edge{0, 1, 0.6})
	h := build(t, 3, Edge{0, 1, 0.6})
	if !Equal(g, h, 0) {
		t.Fatal("identical graphs not Equal")
	}
	h2 := build(t, 3, Edge{0, 1, 0.61})
	if Equal(g, h2, 1e-6) {
		t.Fatal("different labels Equal")
	}
	if !Equal(g, h2, 0.1) {
		t.Fatal("labels within eps not Equal")
	}
	h3 := build(t, 3, Edge{1, 0, 0.6})
	if Equal(g, h3, 0) {
		t.Fatal("different direction Equal")
	}
}

func TestNodesAndIteration(t *testing.T) {
	g := build(t, 4, Edge{0, 1, 0.6}, Edge{2, 1, 0.2})
	g.RemoveNode(3)
	var nodes []NodeID
	g.EachNode(func(v NodeID) { nodes = append(nodes, v) })
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 2 {
		t.Fatalf("EachNode visited %v", nodes)
	}
	succ := g.Successors(0)
	if len(succ) != 1 || succ[0] != 1 {
		t.Fatalf("Successors(0) = %v", succ)
	}
	pred := g.Predecessors(1)
	if len(pred) != 2 {
		t.Fatalf("Predecessors(1) = %v", pred)
	}
	if g.Successors(3) != nil || g.Predecessors(3) != nil {
		t.Fatal("dead node iteration should be empty")
	}
	count := 0
	g.EachOut(0, func(u NodeID, w float64) { count++ })
	g.EachIn(1, func(u NodeID, w float64) { count++ })
	if count != 3 {
		t.Fatalf("EachOut+EachIn visits = %d", count)
	}
}

// TestAppendLiveMatchesScan compares AppendLive and EachNode with a plain
// scan of Alive over graphs of every id-space length up to 300, their live
// nodes drawn at densities from none to all, so that dead stretches start
// and end at every offset, the first and last ids included.
func TestAppendLiveMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		for _, density := range []float64{0, 0.01, 0.2, 0.9, 1} {
			g := New(n)
			for v := 0; v < n; v++ {
				if rng.Float64() >= density {
					g.RemoveNode(NodeID(v))
				}
			}
			var want, each []NodeID
			for v := 0; v < n; v++ {
				if g.Alive(NodeID(v)) {
					want = append(want, NodeID(v))
				}
			}
			g.EachNode(func(v NodeID) { each = append(each, v) })
			if got := g.AppendLive(nil); !slices.Equal(got, want) || !slices.Equal(each, want) {
				t.Fatalf("Cap %d density %g: AppendLive %v, EachNode %v, want %v", n, density, got, each, want)
			}
		}
	}
}
