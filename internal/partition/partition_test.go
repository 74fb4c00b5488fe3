package partition

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func build(t *testing.T, n int, edges ...graph.Edge) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// figure5 reproduces the 3-partition example of Figure 5 structurally:
// partition 0 owns {0,1}, partition 1 owns {2,3}, partition 2 owns {4,5},
// with cross edges 0->2, 1->3 (P0->P1) and 3->4 (P1->P2), 5->2 (P2->P1).
func figure5(t *testing.T) (*graph.Graph, *Partitioning) {
	g := build(t, 6,
		graph.Edge{From: 0, To: 1, Weight: 0.6}, // internal P0
		graph.Edge{From: 0, To: 2, Weight: 0.3}, // cross P0->P1
		graph.Edge{From: 1, To: 3, Weight: 0.4}, // cross P0->P1
		graph.Edge{From: 2, To: 3, Weight: 0.3}, // internal P1
		graph.Edge{From: 3, To: 4, Weight: 0.7}, // cross P1->P2
		graph.Edge{From: 5, To: 2, Weight: 0.3}, // cross P2->P1
	)
	assign := []int{0, 0, 1, 1, 2, 2}
	pi, err := Split(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, pi
}

func TestSplitStructure(t *testing.T) {
	_, pi := figure5(t)
	p0, p1, p2 := pi.Parts[0], pi.Parts[1], pi.Parts[2]

	if len(p0.Members) != 2 || !p0.Members.Has(0) || !p0.Members.Has(1) {
		t.Fatalf("P0 members = %v", p0.Members)
	}
	// P0 has no in-nodes, virtual nodes {2,3}.
	if len(p0.InNodes) != 0 {
		t.Fatalf("P0 in-nodes = %v", p0.InNodes)
	}
	if len(p0.Virtual) != 2 || !p0.Virtual.Has(2) || !p0.Virtual.Has(3) {
		t.Fatalf("P0 virtual = %v", p0.Virtual)
	}
	// P1: in-nodes {2,3}, virtual {4}.
	if len(p1.InNodes) != 2 || !p1.InNodes.Has(2) || !p1.InNodes.Has(3) {
		t.Fatalf("P1 in-nodes = %v", p1.InNodes)
	}
	if len(p1.Virtual) != 1 || !p1.Virtual.Has(4) {
		t.Fatalf("P1 virtual = %v", p1.Virtual)
	}
	// P2: in-nodes {4}, virtual {2}.
	if len(p2.InNodes) != 1 || !p2.InNodes.Has(4) {
		t.Fatalf("P2 in-nodes = %v", p2.InNodes)
	}
	if len(p2.Virtual) != 1 || !p2.Virtual.Has(2) {
		t.Fatalf("P2 virtual = %v", p2.Virtual)
	}
	// Boundary of P1 is {2,3,4}.
	b := p1.Boundary()
	if len(b) != 3 || !b.Has(2) || !b.Has(3) || !b.Has(4) {
		t.Fatalf("P1 boundary = %v", b)
	}
	// Foreign owners of each in-node.
	want := []map[graph.NodeID]graph.NodeSet{
		{},
		{2: graph.NewNodeSet(0, 5), 3: graph.NewNodeSet(1)},
		{4: graph.NewNodeSet(3)},
	}
	for i, p := range pi.Parts {
		if !maps.EqualFunc(p.CrossIn, want[i], maps.Equal) {
			t.Fatalf("P%d owners = %v, want %v", i, p.CrossIn, want[i])
		}
	}
	// Local graphs hold internal + outgoing cross edges only.
	if !p0.Local.HasEdge(0, 1) || !p0.Local.HasEdge(0, 2) || !p0.Local.HasEdge(1, 3) {
		t.Fatal("P0 local edges wrong")
	}
	if p1.Local.HasEdge(0, 2) {
		t.Fatal("P1 must not store its incoming cross edge")
	}
	if !p1.Local.HasEdge(2, 3) || !p1.Local.HasEdge(3, 4) {
		t.Fatal("P1 local edges wrong")
	}
}

func TestLocate(t *testing.T) {
	_, pi := figure5(t)
	for v, want := range []int{0, 0, 1, 1, 2, 2} {
		if got := pi.Locate(graph.NodeID(v)); got != want {
			t.Fatalf("Locate(%d) = %d, want %d", v, got, want)
		}
	}
	if pi.Locate(-1) != -1 || pi.Locate(100) != -1 {
		t.Fatal("out-of-range Locate")
	}
}

func TestPartitionGraph(t *testing.T) {
	_, pi := figure5(t)
	gp := pi.PartitionGraph()
	if len(gp) != 4 {
		t.Fatalf("Gp has %d edges, want 4", len(gp))
	}
	seen := map[[2]graph.NodeID][2]int{}
	for _, ce := range gp {
		seen[[2]graph.NodeID{ce.Edge.From, ce.Edge.To}] = [2]int{ce.FromPart, ce.ToPart}
	}
	if seen[[2]graph.NodeID{0, 2}] != [2]int{0, 1} ||
		seen[[2]graph.NodeID{3, 4}] != [2]int{1, 2} ||
		seen[[2]graph.NodeID{5, 2}] != [2]int{2, 1} {
		t.Fatalf("Gp = %v", seen)
	}
}

func TestMergeRoundTrip(t *testing.T) {
	g, pi := figure5(t)
	m := pi.Merge()
	if !graph.Equal(g, m, 0) {
		t.Fatal("merge of partitions differs from original")
	}
}

func TestSplitErrors(t *testing.T) {
	g := build(t, 3, graph.Edge{From: 0, To: 1, Weight: 0.6})
	if _, err := Split(g, []int{0, 0}, 2); err == nil {
		t.Fatal("short assign accepted")
	}
	if _, err := Split(g, []int{0, 5, 0}, 2); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	if _, err := Split(g, []int{0, 0, 0}, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestByHashAndByContiguous(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 1000, AvgOutDegree: 2, Seed: 8})
	for _, split := range []func(*graph.Graph, int) (*Partitioning, error){ByHash, ByContiguous} {
		pi, err := split(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(pi.Parts) != 4 {
			t.Fatalf("parts = %d", len(pi.Parts))
		}
		total := 0
		for _, p := range pi.Parts {
			total += len(p.Members)
		}
		if total != g.NumNodes() {
			t.Fatalf("members sum to %d, want %d", total, g.NumNodes())
		}
		if !graph.Equal(g, pi.Merge(), 0) {
			t.Fatal("round trip failed")
		}
	}
}

func TestContiguousHasFewerCrossEdgesOnEU(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 1000, InterconnectRate: 0.01, Seed: 3})
	byCountry, err := ByContiguous(eu.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	byHash, err := ByHash(eu.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	cc, hc := crossEdges(byCountry), crossEdges(byHash)
	if cc >= hc {
		t.Fatalf("country partitioning has %d cross edges, hash %d", cc, hc)
	}
	if cc != eu.CrossEdges {
		t.Fatalf("country cross edges = %d, generator reports %d", cc, eu.CrossEdges)
	}
}

// crossEdges counts pi's cross edges from the owned side: one foreign owner
// of an in-node per edge.
func crossEdges(pi *Partitioning) int {
	n := 0
	for _, p := range pi.Parts {
		for _, owners := range p.CrossIn {
			n += len(owners)
		}
	}
	return n
}

// TestApplyStakeHalves applies one cross stake's record at both of its home
// partitions and at a third: the owner's home changes the edge, the owned
// company's home its foreign owners, the third nothing, and applying the
// record at the owned company's home twice changes nothing.
func TestApplyStakeHalves(t *testing.T) {
	_, pi := figure5(t)
	p0, p1, p2 := pi.Parts[0], pi.Parts[1], pi.Parts[2]
	apply := func(p *Partition, remove bool) StakeResult {
		t.Helper()
		res, err := p.ApplyStake(1, 5, 0.2, remove)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, remove := range []bool{false, true} {
		if got := apply(p0, remove); got != (StakeResult{Stored: true, Changed: true}) {
			t.Fatalf("remove=%v: owner's home %+v", remove, got)
		}
		for i := 0; i < 2; i++ {
			if got := apply(p2, remove); got != (StakeResult{Stored: true, Changed: i == 0}) {
				t.Fatalf("remove=%v: owned company's home, application %d: %+v", remove, i+1, got)
			}
		}
		if got := apply(p1, remove); got != (StakeResult{}) {
			t.Fatalf("remove=%v: third partition %+v", remove, got)
		}
		if p0.Local.HasEdge(1, 5) == remove || p2.InNodes.Has(5) == remove || p2.CrossIn[5].Has(1) == remove {
			t.Fatalf("remove=%v: edge %v, in-node %v, owners %v", remove,
				p0.Local.HasEdge(1, 5), p2.InNodes.Has(5), p2.CrossIn[5])
		}
	}
	if got := apply(p0, true); got != (StakeResult{Stored: true}) {
		t.Fatalf("divesting nothing: %+v", got)
	}
}

// TestQuickSplitMergeRoundTrip: splitting and merging any random graph under
// any assignment is lossless, and boundary bookkeeping is consistent.
func TestQuickSplitMergeRoundTrip(t *testing.T) {
	f := func(seed int64, nn, mm, kk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%60)
		k := 1 + int(kk%6)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		assign := make([]int, g.Cap())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		pi, err := Split(g, assign, k)
		if err != nil {
			return false
		}
		if !graph.Equal(g, pi.Merge(), 0) {
			return false
		}
		// In-node bookkeeping: v is an in-node of its partition iff some
		// other partition has a cross edge into v.
		for _, p := range pi.Parts {
			for v := range p.InNodes {
				if pi.Locate(v) != p.ID {
					return false
				}
			}
		}
		gp := pi.PartitionGraph()
		if crossEdges(pi) != len(gp) {
			return false
		}
		for _, ce := range gp {
			if !pi.Parts[ce.ToPart].InNodes.Has(ce.Edge.To) ||
				!pi.Parts[ce.ToPart].CrossIn[ce.Edge.To].Has(ce.Edge.From) {
				return false
			}
			if !pi.Parts[ce.FromPart].Virtual.Has(ce.Edge.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
