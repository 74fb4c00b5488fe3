package graph

import (
	"math/rand"
	"testing"
)

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(1, 2, 2)
	if len(s) != 2 || !s.Has(1) || !s.Has(2) || s.Has(3) {
		t.Fatalf("set = %v", s)
	}
	s.Add(3)
	if !s.Has(3) {
		t.Fatal("Add failed")
	}
	other := NewNodeSet(4, 5)
	s.AddAll(other)
	if len(s) != 5 {
		t.Fatalf("AddAll: %v", s)
	}
}

func TestInduced(t *testing.T) {
	g := build(t, 5,
		Edge{0, 1, 0.6}, Edge{1, 2, 0.7}, Edge{2, 3, 0.8}, Edge{3, 4, 0.9}, Edge{0, 3, 0.1})
	sub := g.Induced(NewNodeSet(0, 1, 3))
	if sub.NumNodes() != 3 {
		t.Fatalf("nodes = %d", sub.NumNodes())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(0, 3) {
		t.Fatal("kept edges missing")
	}
	if sub.HasEdge(1, 2) || sub.HasEdge(2, 3) || sub.HasEdge(3, 4) {
		t.Fatal("edges with dropped endpoint present")
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("edges = %d", sub.NumEdges())
	}
	// Ids are preserved.
	if sub.Cap() != g.Cap() || !sub.Alive(3) || sub.Alive(2) {
		t.Fatal("id space not preserved")
	}
	// Requesting dead nodes is harmless.
	g.RemoveNode(1)
	sub2 := g.Induced(NewNodeSet(0, 1))
	if sub2.NumNodes() != 1 || sub2.Alive(1) {
		t.Fatal("dead node resurrected by Induced")
	}
}

// TestInducedIntoReusesScratch builds random slices of one graph into a
// single scratch graph, reducing some of them in between by removing nodes,
// and requires each result to equal a fresh Induced of the same set, with
// consistent aggregates; once warm, a rebuild allocates nothing.
func TestInducedIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(60)
	for i := 0; i < 150; i++ {
		u, v := NodeID(rng.Intn(60)), NodeID(rng.Intn(60))
		if u != v && g.InSum(v) < 0.7 {
			g.MergeEdge(u, v, 0.05+0.25*rng.Float64())
		}
	}
	g.RemoveNode(7)
	scratch := g.InducedInto(New(90), nil) // resized down from a larger graph
	for round := 0; round < 50; round++ {
		var keep []NodeID
		set := NewNodeSet()
		for i := rng.Intn(40); i > 0; i-- {
			v := NodeID(rng.Intn(62) - 1) // dead, absent and out-of-range ids too
			keep = append(keep, v, v)     // and repeats
			set.Add(v)
		}
		scratch = g.InducedInto(scratch, keep)
		if want := g.Induced(set); !Equal(scratch, want, 0) || scratch.Cap() != g.Cap() {
			t.Fatalf("round %d: InducedInto %v, Induced %v", round, scratch, want)
		}
		if err := checkAggregates(scratch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, v := range keep {
			if rng.Intn(3) == 0 {
				scratch.RemoveNode(v)
			}
		}
	}
	all := make([]NodeID, g.Cap())
	for i := range all {
		all[i] = NodeID(i)
	}
	scratch = g.InducedInto(scratch, all)
	if allocs := testing.AllocsPerRun(20, func() { scratch = g.InducedInto(scratch, all) }); allocs != 0 {
		t.Fatalf("warm InducedInto allocated %.0f times", allocs)
	}
	if !Equal(scratch, g, 0) {
		t.Fatal("inducing every node does not copy the graph")
	}
}

func TestMergeDisjoint(t *testing.T) {
	a := build(t, 2, Edge{0, 1, 0.6})
	b := New(5)
	if err := b.AddEdge(3, 4, 0.7); err != nil {
		t.Fatal(err)
	}
	b.RemoveNode(2) // ensure dead nodes don't propagate
	m := New(0)
	m.Merge(a)
	m.Merge(b)
	if m.NumEdges() != 2 || !m.HasEdge(0, 1) || !m.HasEdge(3, 4) {
		t.Fatalf("merged = %v", m)
	}
	if m.Alive(2) {
		t.Fatal("dead node revived by merge")
	}
}

func TestMergeKeepsExistingLabels(t *testing.T) {
	a := build(t, 2, Edge{0, 1, 0.6})
	b := build(t, 2, Edge{0, 1, 0.4})
	a.Merge(b)
	if w, _ := a.Label(0, 1); w != 0.6 {
		t.Fatalf("label = %g, want the pre-existing 0.6", w)
	}
	if a.NumEdges() != 1 {
		t.Fatalf("edges = %d", a.NumEdges())
	}
}

func TestMergeReconstructsPartitionedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 40, 120)
	// Split nodes in 3 arbitrary parts; each part keeps its induced edges
	// plus its outgoing cross edges (like a partition does).
	parts := make([]NodeSet, 3)
	for i := range parts {
		parts[i] = NewNodeSet()
	}
	g.EachNode(func(v NodeID) { parts[int(v)%3].Add(v) })
	m := New(0)
	for i := range parts {
		keep := NewNodeSet()
		keep.AddAll(parts[i])
		// add virtual endpoints of cross edges
		for v := range parts[i] {
			g.EachOut(v, func(u NodeID, w float64) { keep.Add(u) })
		}
		sub := g.Induced(keep)
		// Induced keeps edges among "keep"; drop edges not owned by part i
		// (those whose source is a virtual node).
		for _, e := range sub.Edges() {
			if !parts[i].Has(e.From) {
				sub.RemoveEdge(e.From, e.To)
			}
		}
		m.Merge(sub)
	}
	if !Equal(g, m, 0) {
		t.Fatal("merge of partitions does not reconstruct the original graph")
	}
}
