package control

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestUltimateControllersChain(t *testing.T) {
	// 0 -0.6-> 1 -0.7-> 2 -0.8-> 3, plus independent 4 with a minority
	// shareholder 0 (0.3).
	g := build(t, 5,
		graph.Edge{From: 0, To: 1, Weight: 0.6},
		graph.Edge{From: 1, To: 2, Weight: 0.7},
		graph.Edge{From: 2, To: 3, Weight: 0.8},
		graph.Edge{From: 0, To: 4, Weight: 0.3},
	)
	heads := ultimateControllers(g)
	for v, want := range map[graph.NodeID]graph.NodeID{0: 0, 1: 0, 2: 0, 3: 0, 4: 4} {
		if heads[v] != want {
			t.Fatalf("head(%d) = %d, want %d", v, heads[v], want)
		}
	}
	groups := Groups(g)
	if len(groups) != 1 || groups[0].Head != 0 || len(groups[0].Members) != 4 {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestUltimateControllersCycle(t *testing.T) {
	// 1 and 2 hold majorities of each other; 2 controls 3.
	g := build(t, 4,
		graph.Edge{From: 1, To: 2, Weight: 0.6},
		graph.Edge{From: 2, To: 1, Weight: 0.6},
		graph.Edge{From: 2, To: 3, Weight: 0.9},
	)
	heads := ultimateControllers(g)
	if heads[1] != 1 || heads[2] != 1 || heads[3] != 1 {
		t.Fatalf("heads = %v", heads)
	}
}

func TestGroupsOrdering(t *testing.T) {
	// Two groups: {0,1,2} headed by 0 and {5,6} headed by 5.
	g := build(t, 7,
		graph.Edge{From: 0, To: 1, Weight: 0.6},
		graph.Edge{From: 0, To: 2, Weight: 0.6},
		graph.Edge{From: 5, To: 6, Weight: 0.9},
	)
	groups := Groups(g)
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].Head != 0 || len(groups[0].Members) != 3 {
		t.Fatalf("largest first: %+v", groups)
	}
	if groups[1].Head != 5 || len(groups[1].Members) != 2 {
		t.Fatalf("second group: %+v", groups)
	}
	// Members sorted.
	for _, gr := range groups {
		for i := 1; i < len(gr.Members); i++ {
			if gr.Members[i-1] >= gr.Members[i] {
				t.Fatalf("members unsorted: %v", gr.Members)
			}
		}
	}
}

// TestQuickUltimateControllersSound: every company's head reaches it through
// a chain of direct controllers (so the head controls the company per CBE),
// every live node has a head, and heads are fixpoints.
func TestQuickUltimateControllersSound(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%40)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		heads := ultimateControllers(g)
		if len(heads) != g.NumNodes() {
			return false
		}
		ok := true
		g.EachNode(func(v graph.NodeID) {
			h, present := heads[v]
			if !present {
				ok = false
				return
			}
			// The head maps to itself.
			if heads[h] != h {
				ok = false
				return
			}
			// The head controls v (chains of majorities are control).
			if h != v && !CBE(g, Query{h, v}) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
