package reach

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

func TestReachableBasics(t *testing.T) {
	g := graph.New(5)
	for _, e := range []graph.Edge{
		{From: 0, To: 1, Weight: 0.2},
		{From: 1, To: 2, Weight: 0.2},
		{From: 3, To: 4, Weight: 0.2},
	} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		s, t graph.NodeID
		want bool
	}{
		{0, 2, true},
		{2, 0, false},
		{0, 4, false},
		{3, 4, true},
		{1, 1, true},
		{0, 99, false},
		{99, 0, false},
	}
	for _, c := range cases {
		if got := reachable(g, c.s, c.t); got != c.want {
			t.Errorf("reachable(%d,%d) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestDistributedCrossPartitionPath(t *testing.T) {
	// A path hopping across three partitions: 0 -> 2 -> 4 with each node in
	// its own partition.
	g := graph.New(6)
	if err := g.AddEdge(0, 2, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 4, 0.2); err != nil {
		t.Fatal(err)
	}
	pi, err := partition.Split(g, []int{0, 0, 1, 1, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !Distributed(pi, 0, 4) {
		t.Fatal("cross-partition path missed")
	}
	if Distributed(pi, 4, 0) {
		t.Fatal("reverse path invented")
	}
	if !Distributed(pi, 3, 3) {
		t.Fatal("self reachability")
	}
	if Distributed(pi, 99, 0) {
		t.Fatal("missing source")
	}
}

func TestPartialAnswerIsBoundarySized(t *testing.T) {
	// The partial answer of a site is pairs over boundary ∪ endpoints —
	// quadratic in the boundary, independent of partition size. This is the
	// contrast with company control (whole reduced subgraphs).
	eu := gen.EU(gen.EUConfig{Countries: 3, NodesPerCountry: 3000, InterconnectRate: 0.005, Seed: 4})
	pi, err := partition.ByContiguous(eu.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pi.Parts {
		pa := Evaluate(p, 0, graph.NodeID(eu.G.Cap()-1))
		b := len(p.Boundary()) + 2
		if len(pa.Pairs) > b*b {
			t.Fatalf("site %d: %d pairs for boundary %d", p.ID, len(pa.Pairs), b)
		}
	}
}

// TestQuickDistributedMatchesBFS: partial evaluation agrees with central
// BFS on random graphs under random partitionings.
func TestQuickDistributedMatchesBFS(t *testing.T) {
	f := func(seed int64, nn, mm, kk, ss, tt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%40)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		k := 1 + int(kk%5)
		assign := make([]int, g.Cap())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		pi, err := partition.Split(g, assign, k)
		if err != nil {
			return false
		}
		s := graph.NodeID(int(ss) % n)
		tgt := graph.NodeID(int(tt) % n)
		return Distributed(pi, s, tgt) == reachable(g, s, tgt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// reachable reports whether t can be reached from s along ownership edges
// (plain BFS; edge labels are ignored): the centralized reference that the
// distributed evaluation is checked against.
func reachable(g *graph.Graph, s, t graph.NodeID) bool {
	if !g.Alive(s) || !g.Alive(t) {
		return false
	}
	if s == t {
		return true
	}
	seen := graph.NewNodeSet(s)
	queue := []graph.NodeID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		found := false
		g.EachOut(v, func(u graph.NodeID, w float64) {
			if found || seen.Has(u) {
				return
			}
			if u == t {
				found = true
				return
			}
			seen.Add(u)
			queue = append(queue, u)
		})
		if found {
			return true
		}
	}
	return false
}
