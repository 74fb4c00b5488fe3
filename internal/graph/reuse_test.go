package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// mustAggregates asserts the cached per-node aggregates match the adjacency
// (reuse paths must leave a graph indistinguishable from one built edge by
// edge); checkAggregates lives in aggregates_test.go.
func mustAggregates(t *testing.T, g *Graph) {
	t.Helper()
	if err := checkAggregates(g); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIntoMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// One reused destination across differently-shaped graphs: shrinking,
	// growing, and same-size clones must all land exact.
	dst := New(0)
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80), rng.Intn(200))
		dst = g.CloneInto(dst)
		if !Equal(g, dst, 0) {
			t.Fatalf("trial %d: CloneInto diverged from source", trial)
		}
		mustAggregates(t, dst)
		// The copy must be independent: mutating it may not touch the source.
		before := g.NumEdges()
		dst.EachNode(func(v NodeID) {
			if dst.NumEdges() > 0 {
				dst.RemoveNode(v)
			}
		})
		if g.NumEdges() != before {
			t.Fatalf("trial %d: mutating the clone changed the source", trial)
		}
	}
	if got := New(5).CloneInto(nil); got == nil || got.NumNodes() != 5 {
		t.Fatal("CloneInto(nil) must behave like Clone")
	}
	g := New(3)
	if got := g.CloneInto(g); got == g || !Equal(got, g, 0) {
		t.Fatal("CloneInto(self) must return an independent copy")
	}
}

func TestCloneIntoSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 200, 600)
	dst := g.CloneInto(New(0))
	allocs := testing.AllocsPerRun(20, func() {
		dst = g.CloneInto(dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state CloneInto allocated %.1f times per run, want 0", allocs)
	}
}

// TestRemoveNodeKeepsSiblingAdjacency removes nodes on either side of a
// copy and checks the other side keeps its adjacency: no map is shared
// between a graph and its clone. A removed node's maps are cleared and kept,
// so its tables are there for the next CloneInto.
func TestRemoveNodeKeepsSiblingAdjacency(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := randomGraph(rng, 40, 120)
		sn := g.Clone()
		ref := sn.Clone()
		owned := NodeID(rng.Intn(40))
		g.MergeEdge(owned, (owned+1)%40, 0.01) // owned has an out-table
		for i := 0; i < 15; i++ {
			g.RemoveNode(NodeID(rng.Intn(40)))
		}
		g.RemoveNode(owned)
		if !Equal(sn, ref, 0) {
			t.Fatalf("seed %d: removals on the graph changed its copy", seed)
		}
		if g.Alive(owned) || g.out[owned] == nil || len(g.out[owned]) != 0 {
			t.Fatalf("seed %d: removing a node dropped its table (or left entries)", seed)
		}
		live := g.Clone()
		for i := 0; i < 15; i++ {
			sn.RemoveNode(NodeID(rng.Intn(40)))
		}
		if !Equal(g, live, 0) {
			t.Fatalf("seed %d: removals on the copy changed the graph", seed)
		}
		mustAggregates(t, g)
		mustAggregates(t, sn)
	}
}

// TestKillClearsOwnedDropsShared checks the batch removal's kill, inline and
// sharded: a removed node's maps are emptied but kept, the survivors lose
// their edges to it, and a copy taken before the removal keeps its own.
func TestKillClearsOwnedDropsShared(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := New(5)
		g.AddEdge(0, 1, 0.3)
		g.AddEdge(1, 2, 0.3)
		g.AddEdge(2, 3, 0.6)
		g.AddEdge(4, 2, 0.3)
		sn := g.Clone()
		ref := sn.Clone()
		isVictim := make([]bool, g.Cap())
		isVictim[1], isVictim[2] = true, true
		g.RemoveBatchMetered(nil, []NodeID{1, 2}, isVictim, workers, nil)
		for _, v := range []NodeID{1, 2} {
			if g.Alive(v) || g.out[v] == nil || g.in[v] == nil || len(g.out[v]) != 0 || len(g.in[v]) != 0 {
				t.Fatalf("workers %d, node %d: alive=%v out=%v in=%v, want dead with empty kept tables",
					workers, v, g.Alive(v), g.out[v], g.in[v])
			}
		}
		if g.NumNodes() != 3 || g.NumEdges() != 0 || g.OutDegree(0) != 0 || g.InDegree(3) != 0 || g.OutDegree(4) != 0 {
			t.Fatalf("workers %d: %d nodes %d edges left, want 3 live nodes and no edge", workers, g.NumNodes(), g.NumEdges())
		}
		if !Equal(sn, ref, 0) {
			t.Fatalf("workers %d: kill on the graph changed its copy", workers)
		}
		mustAggregates(t, g)
	}
}

func TestResetKeepsCapacityAndRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 60, 150)
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("after Reset: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Cap() != 60 {
		t.Fatalf("Reset changed capacity to %d", g.Cap())
	}
	mustAggregates(t, g)
	// A reset graph must accept a full rebuild through the public mutators.
	g.Revive(4)
	g.Revive(9)
	if err := g.AddEdge(4, 9, 0.8); err != nil {
		t.Fatal(err)
	}
	if g.DirectController(9) != 4 {
		t.Fatal("rebuild after Reset lost the controlling stake")
	}
}

// TestResetToResizesAndRebuilds runs one graph through ResetTo at shrinking
// and growing sizes: each time it must be n live isolated nodes — no edge
// left in a map that regrowth revealed — and rebuild edge by edge into the
// same graph a fresh New(n) would.
func TestResetToResizesAndRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := randomGraph(rng, 60, 150)
	for _, n := range []int{20, 90, 5, 60, 0, 40} {
		g.ResetTo(n)
		if g.Cap() != n || g.NumNodes() != n || g.NumEdges() != 0 {
			t.Fatalf("ResetTo(%d): %v", n, g)
		}
		for v := NodeID(0); int(v) < n; v++ {
			if !g.Alive(v) || g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
				t.Fatalf("ResetTo(%d): node %d not a live isolated node", n, v)
			}
		}
		mustAggregates(t, g)
		want := randomGraph(rng, n+1, 3*n)
		g.ResetTo(want.Cap())
		for v := NodeID(0); int(v) < want.Cap(); v++ {
			if !want.Alive(v) {
				g.RemoveNode(v)
			}
		}
		for _, e := range want.Edges() {
			if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		if !Equal(g, want, 0) {
			t.Fatalf("rebuild after ResetTo(%d) diverged from a fresh graph", want.Cap())
		}
		mustAggregates(t, g)
	}
}

func TestDecodeBinaryMatchesReadBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80), rng.Intn(200))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := decodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !Equal(g, h, 0) {
			t.Fatalf("trial %d: decodeBinary diverged from source", trial)
		}
		mustAggregates(t, h)
	}
}

func TestDecodeBinaryIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dst := New(0)
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80), rng.Intn(200))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		var err error
		dst, err = DecodeBinaryInto(dst, buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: decode into: %v", trial, err)
		}
		if !Equal(g, dst, 0) {
			t.Fatalf("trial %d: DecodeBinaryInto diverged from source", trial)
		}
		mustAggregates(t, dst)
	}
}

func TestDecodeBinaryIntoSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := randomGraph(rng, 200, 600)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	dst, err := DecodeBinaryInto(New(0), payload)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if dst, err = DecodeBinaryInto(dst, payload); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeBinaryInto allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecodeIntoShrunkScratch decodes a payload spanning 30 000 ids into
// scratch that once held a 30 000-id graph and was then shrunk to 100 ids. A
// shrinking CloneInto leaves the scratch's entries past the new length as
// they were, live nodes and edges included, so the decode's growth must
// clean the ids it reveals; emptying only the live nodes below the length is
// not enough.
func TestDecodeIntoShrunkScratch(t *testing.T) {
	const n = 30000
	rng := rand.New(rand.NewSource(47))
	large := randomGraph(rng, n, 3*n)
	small := randomGraph(rng, 100, 300)
	// The payload: a few hundred nodes spread up to id n-1.
	wide := New(n)
	for v := NodeID(0); v < n; v++ {
		if rng.Intn(100) != 0 && v != n-1 {
			wide.RemoveNode(v)
		}
	}
	live := wide.AppendLive(nil)
	for i := 0; i < 2*len(live); i++ {
		u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		if u != v && wide.InSum(v) < 0.5 {
			wide.MergeEdge(u, v, 0.2+0.3*rng.Float64())
		}
	}
	var buf bytes.Buffer
	if err := wide.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := decodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, shrink := range map[string]func(dst *Graph) *Graph{
		"CloneInto":   func(dst *Graph) *Graph { return small.CloneInto(dst) },
		"InducedInto": func(dst *Graph) *Graph { return small.InducedInto(dst, small.AppendLive(nil)) },
	} {
		scratch := shrink(large.CloneInto(New(0)))
		if scratch.Cap() != 100 {
			t.Fatalf("%s: shrunk scratch has Cap %d, want 100", name, scratch.Cap())
		}
		got, err := DecodeBinaryInto(scratch, buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Cap() != n || !Equal(got, want, 0) || !Equal(want, got, 0) {
			t.Fatalf("%s: decode into shrunk scratch gave %v, fresh decode %v", name, got, want)
		}
		mustAggregates(t, got)
		if err := checkDeadIDs(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDecodeBinaryRejectsGarbage(t *testing.T) {
	if _, err := decodeBinary([]byte("not a graph at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := decodeBinary(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	g := New(3)
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(binaryMagic); cut < len(full); cut += 3 {
		if _, err := decodeBinary(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
