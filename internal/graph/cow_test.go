package graph

import (
	"math/rand"
	"testing"
)

// applyRandomMutation performs one random mutator call on g (and, when twin
// is non-nil, the identical call on twin) so tests can drive a COW
// participant and a plain deep-copied reference through the same history.
func applyRandomMutation(rng *rand.Rand, g, twin *Graph) {
	n := NodeID(g.Cap())
	if n == 0 {
		return
	}
	u, v := NodeID(rng.Intn(int(n))), NodeID(rng.Intn(int(n)))
	switch rng.Intn(10) {
	case 0:
		g.RemoveNode(v)
		if twin != nil {
			twin.RemoveNode(v)
		}
	case 1:
		g.Revive(v)
		if twin != nil {
			twin.Revive(v)
		}
	case 2:
		g.RemoveEdge(u, v)
		if twin != nil {
			twin.RemoveEdge(u, v)
		}
	default:
		w := 0.05 + 0.4*rng.Float64()
		g.MergeEdge(u, v, w)
		if twin != nil {
			twin.MergeEdge(u, v, w)
		}
	}
}

func randomCOWGraph(rng *rand.Rand, n, edges int) *Graph {
	g := New(n)
	for i := 0; i < edges; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		g.MergeEdge(u, v, 0.05+0.3*rng.Float64())
	}
	return g
}

// TestSnapshotCloneIsolation drives a graph through many epochs of random
// mutations, snapshotting along the way, and checks that (a) every snapshot
// still equals the deep clone taken at its epoch — no mutation ever leaked
// into a shared map — and (b) the live graph equals a twin that took the
// same mutations without ever snapshotting.
func TestSnapshotCloneIsolation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomCOWGraph(rng, 40, 120)
		twin := g.Clone()

		type epoch struct {
			snap, ref *Graph
		}
		var epochs []epoch
		for step := 0; step < 400; step++ {
			if step%25 == 0 {
				sn := g.SnapshotClone()
				epochs = append(epochs, epoch{snap: sn, ref: sn.Clone()})
			}
			applyRandomMutation(rng, g, twin)
		}
		if !Equal(g, twin, 0) {
			t.Fatalf("seed %d: live COW graph diverged from plain twin", seed)
		}
		for i, e := range epochs {
			if !Equal(e.snap, e.ref, 0) {
				t.Fatalf("seed %d: snapshot %d mutated after later updates", seed, i)
			}
			if err := checkAggregates(e.snap); err != nil {
				t.Fatalf("seed %d: snapshot %d aggregates: %v", seed, i, err)
			}
		}
		if err := checkAggregates(g); err != nil {
			t.Fatalf("seed %d: live aggregates: %v", seed, err)
		}
	}
}

// TestSnapshotCloneChain checks that snapshots of snapshots (and mutating a
// snapshot itself) keep every generation isolated.
func TestSnapshotCloneChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomCOWGraph(rng, 30, 80)

	s1 := g.SnapshotClone()
	ref1 := s1.Clone()
	s2 := s1.SnapshotClone() // snapshot of a snapshot
	ref2 := s2.Clone()

	// Mutate every generation independently.
	for i := 0; i < 200; i++ {
		applyRandomMutation(rng, g, nil)
		applyRandomMutation(rng, s2, nil)
	}
	if !Equal(s1, ref1, 0) {
		t.Fatal("middle snapshot mutated by sibling writes")
	}
	if Equal(s2, ref2, 0) {
		t.Fatal("mutations on s2 had no effect — test is vacuous")
	}
	if err := checkAggregates(g); err != nil {
		t.Fatalf("live aggregates: %v", err)
	}
	if err := checkAggregates(s2); err != nil {
		t.Fatalf("snapshot aggregates: %v", err)
	}
}

// TestSnapshotParticipantRecycled checks that Reset and CloneInto are safe on
// a graph that still shares maps with a snapshot: the sibling must keep its
// view, the recycled graph must behave like fresh scratch.
func TestSnapshotParticipantRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomCOWGraph(rng, 20, 50)
	sn := g.SnapshotClone()
	ref := sn.Clone()

	// Reset the live side while the snapshot is alive.
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("reset left %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !Equal(sn, ref, 0) {
		t.Fatal("Reset on the live graph cleared a snapshot's shared maps")
	}

	// CloneInto a graph that is itself a COW participant.
	src := randomCOWGraph(rng, 25, 60)
	got := src.CloneInto(sn)
	if !Equal(got, src, 0) {
		t.Fatal("CloneInto a snapshot participant lost edges")
	}
	if err := checkAggregates(got); err != nil {
		t.Fatalf("recycled aggregates: %v", err)
	}
}

// TestSnapshotCloneGrowth checks id-space growth on both sides of a snapshot.
func TestSnapshotCloneGrowth(t *testing.T) {
	g := New(4)
	g.MergeEdge(0, 1, 0.6)
	sn := g.SnapshotClone()

	id := g.AddNode()
	g.MergeEdge(id, 0, 0.3)
	g.Revive(NodeID(40))
	g.MergeEdge(40, 1, 0.2)

	if sn.Cap() != 4 {
		t.Fatalf("snapshot grew to cap %d", sn.Cap())
	}
	if w, ok := g.Label(40, 1); !ok || w != 0.2 {
		t.Fatalf("live graph lost post-snapshot edge: %v %v", w, ok)
	}
	if sn.HasEdge(id, 0) {
		t.Fatal("snapshot sees post-snapshot edge")
	}
	if err := checkAggregates(g); err != nil {
		t.Fatalf("aggregates after growth: %v", err)
	}
}

// BenchmarkSnapshotClone contrasts the COW snapshot with a deep Clone — the
// cost an update epoch used to pay.
func BenchmarkSnapshotClone(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomCOWGraph(rng, 20000, 60000)
	b.Run("cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.SnapshotClone()
		}
	})
	b.Run("deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Clone()
		}
	})
}

// TestRemoveNodeKeepsSiblingAdjacency removes nodes on either side of a
// snapshot and checks the other side keeps its adjacency: a shared map is
// dropped, never cleared in place. A map the remover owns is cleared and
// kept, so its table is there for the next reuse.
func TestRemoveNodeKeepsSiblingAdjacency(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := randomCOWGraph(rng, 40, 120)
		sn := g.SnapshotClone()
		ref := sn.Clone()
		owned := NodeID(rng.Intn(40))
		g.MergeEdge(owned, (owned+1)%40, 0.01) // g now owns owned's maps
		for i := 0; i < 15; i++ {
			g.RemoveNode(NodeID(rng.Intn(40)))
		}
		g.RemoveNode(owned)
		if !Equal(sn, ref, 0) {
			t.Fatalf("seed %d: removals on the live graph changed its snapshot", seed)
		}
		if g.out[owned] == nil || len(g.out[owned]) != 0 {
			t.Fatalf("seed %d: removing an owned node dropped its table (or left entries)", seed)
		}
		live := g.Clone()
		for i := 0; i < 15; i++ {
			sn.RemoveNode(NodeID(rng.Intn(40)))
		}
		if !Equal(g, live, 0) {
			t.Fatalf("seed %d: removals on the snapshot changed the live graph", seed)
		}
		if err := checkAggregates(g); err != nil {
			t.Fatalf("seed %d: live aggregates: %v", seed, err)
		}
		if err := checkAggregates(sn); err != nil {
			t.Fatalf("seed %d: snapshot aggregates: %v", seed, err)
		}
	}
}

// TestRemoveNodeSharedMapsNotCloned removes a node whose maps are shared with
// a snapshot while every neighbor is already owned: nothing needs copying,
// so the removal must not allocate — the removed node's shared maps are
// dropped, not cloned and then thrown away.
func TestRemoveNodeSharedMapsNotCloned(t *testing.T) {
	const runs = 20
	graphs := make([]*Graph, runs+1) // AllocsPerRun adds a warm-up run
	snaps := make([]*Graph, runs+1)
	for i := range graphs {
		g := New(5)
		g.AddEdge(0, 1, 0.3)
		g.AddEdge(1, 2, 0.3)
		g.AddEdge(0, 3, 0.3)
		g.AddEdge(4, 2, 0.3)
		snaps[i] = g.SnapshotClone()
		g.MergeEdge(0, 3, 0.1) // owns 0 and 3
		g.MergeEdge(4, 2, 0.1) // owns 4 and 2; 1 stays shared
		graphs[i] = g
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !graphs[next].RemoveNode(1) {
			t.Fatal("node 1 was not live")
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("RemoveNode of a shared node with owned neighbors allocated %.1f times, want 0", allocs)
	}
	for i, sn := range snaps {
		if !sn.HasEdge(0, 1) || !sn.HasEdge(1, 2) {
			t.Fatalf("graph %d: removal on the live side cut the snapshot's edges", i)
		}
	}
}

// TestKillClearsOwnedDropsShared checks the reducer's removal on a graph
// that once snapshotted: the maps it owns are cleared and kept, the ones a
// sibling may share are dropped and left intact on the sibling.
func TestKillClearsOwnedDropsShared(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0.3)
	g.AddEdge(2, 3, 0.3)
	sn := g.SnapshotClone()
	ref := sn.Clone()
	g.MergeEdge(2, 3, 0.1) // owns 2 and 3; 0 and 1 stay shared
	g.kill([]NodeID{0, 2})
	if g.out[0] != nil || g.tags[0] != g.tag {
		t.Fatal("kill kept a shared map instead of dropping it")
	}
	if g.out[2] == nil || len(g.out[2]) != 0 {
		t.Fatal("kill dropped an owned map (or left entries) instead of clearing it")
	}
	if !Equal(sn, ref, 0) {
		t.Fatal("kill on the live graph changed its snapshot")
	}
}
