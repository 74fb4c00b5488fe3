package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// model is a trivially correct reference implementation of the mutable
// ownership graph: a map of edges plus a set of live nodes.
type model struct {
	alive map[NodeID]bool
	edges map[[2]NodeID]float64
}

func newModel(n int) *model {
	m := &model{alive: map[NodeID]bool{}, edges: map[[2]NodeID]float64{}}
	for i := 0; i < n; i++ {
		m.alive[NodeID(i)] = true
	}
	return m
}

func (m *model) addEdge(u, v NodeID, w float64) bool {
	if !m.alive[u] || !m.alive[v] || u == v || w <= 0 || w > 1 {
		return false
	}
	if _, dup := m.edges[[2]NodeID{u, v}]; dup {
		return false
	}
	m.edges[[2]NodeID{u, v}] = w
	return true
}

func (m *model) mergeEdge(u, v NodeID, w float64) bool {
	if !m.alive[u] || !m.alive[v] || u == v || w <= 0 || w > 1 {
		return false
	}
	nw := m.edges[[2]NodeID{u, v}] + w
	if nw > 1 {
		nw = 1
	}
	m.edges[[2]NodeID{u, v}] = nw
	return true
}

func (m *model) removeEdge(u, v NodeID) bool {
	if _, ok := m.edges[[2]NodeID{u, v}]; !ok {
		return false
	}
	delete(m.edges, [2]NodeID{u, v})
	return true
}

func (m *model) removeNode(v NodeID) bool {
	if !m.alive[v] {
		return false
	}
	delete(m.alive, v)
	for e := range m.edges {
		if e[0] == v || e[1] == v {
			delete(m.edges, e)
		}
	}
	return true
}

func (m *model) check(t *testing.T, g *Graph, step int) {
	t.Helper()
	if g.NumNodes() != len(m.alive) {
		t.Fatalf("step %d: nodes %d vs model %d", step, g.NumNodes(), len(m.alive))
	}
	if g.NumEdges() != len(m.edges) {
		t.Fatalf("step %d: edges %d vs model %d", step, g.NumEdges(), len(m.edges))
	}
	for e, w := range m.edges {
		gw, ok := g.Label(e[0], e[1])
		if !ok || gw != w {
			t.Fatalf("step %d: edge %v: %g,%v vs model %g", step, e, gw, ok, w)
		}
	}
	// In/out degrees must be consistent with the edge set.
	for v := range m.alive {
		in, out := 0, 0
		for e := range m.edges {
			if e[0] == v {
				out++
			}
			if e[1] == v {
				in++
			}
		}
		if g.InDegree(v) != in || g.OutDegree(v) != out {
			t.Fatalf("step %d: degrees of %d: (%d,%d) vs model (%d,%d)",
				step, v, g.InDegree(v), g.OutDegree(v), in, out)
		}
	}
}

// TestModelBasedMutations drives random operation sequences against the
// graph and the reference model simultaneously.
func TestModelBasedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(12)
		g := New(n)
		m := newModel(n)
		for step := 0; step < 120; step++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			w := float64(rng.Intn(12)) / 10 // includes 0 and 1.1: invalid inputs
			switch rng.Intn(5) {
			case 0:
				got := g.AddEdge(u, v, w) == nil
				want := m.addEdge(u, v, w)
				if got != want {
					t.Fatalf("trial %d step %d: AddEdge(%d,%d,%g) ok=%v model=%v", trial, step, u, v, w, got, want)
				}
				if !want && got {
					m.addEdge(u, v, w)
				}
			case 1:
				got := g.MergeEdge(u, v, w) == nil
				want := m.mergeEdge(u, v, w)
				if got != want {
					t.Fatalf("trial %d step %d: MergeEdge(%d,%d,%g) ok=%v model=%v", trial, step, u, v, w, got, want)
				}
			case 2:
				if g.RemoveEdge(u, v) != m.removeEdge(u, v) {
					t.Fatalf("trial %d step %d: RemoveEdge(%d,%d) disagrees", trial, step, u, v)
				}
			case 3:
				if g.RemoveNode(u) != m.removeNode(u) {
					t.Fatalf("trial %d step %d: RemoveNode(%d) disagrees", trial, step, u)
				}
			case 4:
				// Revive is only exercised on dead ids within range.
				if !m.alive[u] {
					g.Revive(u)
					m.alive[u] = true
				}
			}
			m.check(t, g, step)
			if err := checkDeadIDs(g); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestQuickCloneAfterMutations: clones taken mid-sequence stay equal to
// their snapshot while the original diverges.
func TestQuickCloneAfterMutations(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nn%12)
		g := New(n)
		for i := 0; i < 20; i++ {
			g.MergeEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 0.1)
		}
		snap := g.Clone()
		ref := g.Clone()
		for i := 0; i < 10; i++ {
			g.RemoveNode(NodeID(rng.Intn(n)))
		}
		return Equal(snap, ref, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
