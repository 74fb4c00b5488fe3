package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFreezeMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(60), rng.Intn(150))
		f := Freeze(g)
		if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() || f.Cap() != g.Cap() {
			t.Fatalf("trial %d: counters differ", trial)
		}
		for i := 0; i < g.Cap(); i++ {
			v := NodeID(i)
			if f.Alive(v) != g.Alive(v) {
				t.Fatalf("trial %d: alive(%d) differs", trial, v)
			}
			seen := map[NodeID]float64{}
			f.EachOut(v, func(u NodeID, w float64) {
				if _, dup := seen[u]; dup {
					t.Fatalf("trial %d: frozen repeats edge (%d,%d)", trial, v, u)
				}
				seen[u] = w
			})
			if len(seen) != g.OutDegree(v) {
				t.Fatalf("trial %d: outdeg(%d) %d vs %d", trial, v, len(seen), g.OutDegree(v))
			}
			g.EachOut(v, func(u NodeID, w float64) {
				if seen[u] != w {
					t.Fatalf("trial %d: edge (%d,%d) differs", trial, v, u)
				}
				delete(seen, u)
			})
			if len(seen) != 0 {
				t.Fatalf("trial %d: frozen has extra edges %v", trial, seen)
			}
		}
	}
}

func TestFreezeIsSnapshot(t *testing.T) {
	g := build(t, 3, Edge{0, 1, 0.6}, Edge{1, 2, 0.7})
	f := Freeze(g)
	g.RemoveNode(1)
	if f.NumEdges() != 2 || !f.Alive(1) {
		t.Fatal("snapshot tracked later mutations")
	}
	if f.Alive(99) || f.Alive(None) {
		t.Fatal("out-of-range alive")
	}
	f.EachOut(99, func(NodeID, float64) { t.Fatal("dead iteration") })
	f.EachOut(None, func(NodeID, float64) { t.Fatal("dead iteration") })
}

func TestQuickFreezeFaithful(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+int(nn%40), int(mm)%120)
		fz := Freeze(g)
		ok := true
		g.EachNode(func(v NodeID) {
			var a, b float64
			g.EachOut(v, func(u NodeID, w float64) { a += w })
			fz.EachOut(v, func(u NodeID, w float64) { b += w })
			if mathAbs(a-b) > 1e-9 {
				ok = false
			}
		})
		return ok && fz.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
