package dist

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"testing/quick"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// localCluster builds an in-process coordinator over k hash partitions of g.
func localCluster(t testing.TB, g *graph.Graph, k int, opts Options) (*Coordinator, *partition.Partitioning) {
	t.Helper()
	pi, err := partition.ByHash(g, k)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, k)
	for i, p := range pi.Parts {
		clients[i] = &LocalClient{Site: NewSite(p, 2), MeasureBytes: true}
	}
	return NewCoordinator(clients, opts), pi
}

func TestDistributedMatchesCentralizedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(60)
		g := gen.Random(n, rng.Intn(5*n), rng.Int63())
		k := 1 + rng.Intn(4)
		for _, useCache := range []bool{false, true} {
			coord, _ := localCluster(t, g, k, Options{UseCache: useCache, Workers: 2})
			for i := 0; i < 6; i++ {
				q := control.Query{
					S: graph.NodeID(rng.Intn(n)),
					T: graph.NodeID(rng.Intn(n)),
				}
				want := control.CBE(g, q)
				got, m, err := coord.Answer(context.Background(), q)
				if err != nil {
					t.Fatalf("trial %d cache=%v %v: %v", trial, useCache, q, err)
				}
				if got != want {
					t.Fatalf("trial %d cache=%v %v: distributed=%v centralized=%v (metrics %+v)",
						trial, useCache, q, got, want, m)
				}
			}
		}
	}
}

func TestDistributedMatchesCentralizedEU(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 2000, InterconnectRate: 0.01, Seed: 77})
	pi, err := partition.ByContiguous(eu.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		clients[i] = &LocalClient{Site: NewSite(p, 2), MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{Workers: 2})
	rng := rand.New(rand.NewSource(5))
	n := eu.G.Cap()
	for i := 0; i < 25; i++ {
		q := control.Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
		want := control.CBE(eu.G, q)
		got, _, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got != want {
			t.Fatalf("%v: distributed=%v centralized=%v", q, got, want)
		}
	}
}

func TestCacheHitsAndInvalidate(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 4000, AvgOutDegree: 2, Seed: 13})
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*Site, 4)
	clients := make([]SiteClient, 4)
	for i, p := range pi.Parts {
		sites[i] = NewSite(p, 2)
		clients[i] = &LocalClient{Site: sites[i], MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 2})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// s in partition 0, t in partition 3: sites 1 and 2 must hit the cache.
	q := control.Query{S: 10, T: graph.NodeID(g.Cap() - 10)}
	want := control.CBE(g, q)
	got, m, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("answer = %v, want %v", got, want)
	}
	if m.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2 (metrics %+v)", m.CacheHits, m)
	}
	// After invalidation the site recomputes; answers stay correct.
	if _, err := sites[1].Apply(store.Record{Kind: store.KindMark}); err != nil {
		t.Fatal(err)
	}
	got2, m2, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want || m2.CacheHits != 2 {
		t.Fatalf("after invalidate: got %v hits %d", got2, m2.CacheHits)
	}
}

func TestPartialAnswersAreSmall(t *testing.T) {
	// Partial answers shrink when the interconnection rate is low — the EU
	// setting (Section VII property 3). A country-partitioned EU graph at
	// 0.5% border companies qualifies; a hash-split scale-free graph
	// would not.
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 5000, InterconnectRate: 0.005, Seed: 19}).G
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, 4)
	for i, p := range pi.Parts {
		clients[i] = &LocalClient{Site: NewSite(p, 2), MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{Workers: 2})
	q := control.Query{S: 3, T: graph.NodeID(g.Cap() - 3)}
	_, m, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m.DecidedBy == -1 {
		// The coordinator merged: partial results must be far smaller than
		// the partitions (property 3 of Section VII).
		if m.PartialNodes > g.NumNodes()/5 {
			t.Fatalf("partials hold %d of %d nodes", m.PartialNodes, g.NumNodes())
		}
		if m.Bytes <= 0 {
			t.Fatal("no traffic accounted")
		}
		if m.MGraphNodes <= 0 {
			t.Fatal("merged graph empty")
		}
	}
	if m.SitesQueried != 4 {
		t.Fatalf("sites queried = %d", m.SitesQueried)
	}
}

func TestSiteEvaluateDecidesT3Locally(t *testing.T) {
	// s directly controls t inside one partition: that site answers alone.
	g := graph.New(4)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 0.2); err != nil {
		t.Fatal(err)
	}
	pi, err := partition.Split(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	site := NewSite(pi.Parts[0], 1)
	pa, err := site.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Ans != control.True || pa.Reduced != nil {
		t.Fatalf("partial = %+v", pa)
	}
}

func TestSiteDoesNotTrustT1WithoutS(t *testing.T) {
	// Partition 1 does not store s; it must not conclude "false" from s's
	// local absence.
	g := graph.New(4)
	if err := g.AddEdge(0, 2, 0.9); err != nil { // cross edge into partition 1
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 0.9); err != nil {
		t.Fatal(err)
	}
	pi, err := partition.Split(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	site1 := NewSite(pi.Parts[1], 1)
	pa, err := site1.Evaluate(context.Background(), control.Query{S: 0, T: 3}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Ans == control.False {
		t.Fatal("site invented a global false without holding s")
	}
}

func TestCoordinatorNoSites(t *testing.T) {
	coord := NewCoordinator(nil, Options{})
	if _, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 1}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 3, NodesPerCountry: 1500, InterconnectRate: 0.01, Seed: 55}).G
	pi, err := partition.ByContiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, 3)
	for i, p := range pi.Parts {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func(p *partition.Partition) {
			if err := Serve(context.Background(), l, NewSite(p, 2)); err != nil {
				t.Errorf("serve: %v", err)
			}
		}(p)
		c, err := Dial(context.Background(), l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.SiteID() != i {
			t.Fatalf("site id = %d, want %d", c.SiteID(), i)
		}
		clients[i] = c
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 2})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		q := control.Query{
			S: graph.NodeID(rng.Intn(g.Cap())),
			T: graph.NodeID(rng.Intn(g.Cap())),
		}
		want := control.CBE(g, q)
		got, m, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got != want {
			t.Fatalf("%v over TCP: got %v, want %v", q, got, want)
		}
		if m.DecidedBy == -1 && m.Bytes == 0 {
			t.Fatalf("%v: merged without observing traffic", q)
		}
	}
}

// TestQuickDistributedEquivalence: for arbitrary random graphs, partition
// counts and cache settings, the distributed evaluation equals CBE.
func TestQuickDistributedEquivalence(t *testing.T) {
	f := func(seed int64, nn, mm, kk, ss, tt uint8, useCache bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%40)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		k := 1 + int(kk%5)
		coord, _ := localCluster(t, g, k, Options{UseCache: useCache, Workers: 1})
		q := control.Query{S: graph.NodeID(int(ss) % n), T: graph.NodeID(int(tt) % n)}
		want := control.CBE(g, q)
		got, _, err := coord.Answer(context.Background(), q)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
