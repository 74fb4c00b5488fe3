package dist

import (
	"context"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

func TestSiteAccessors(t *testing.T) {
	g := gen.Random(20, 40, 3)
	pi, err := partition.ByHash(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(pi.Parts[1], 2)
	if s.ID() != 1 {
		t.Fatalf("id = %d", s.ID())
	}
	if s.Members() != len(pi.Parts[1].Members) {
		t.Fatalf("members = %d", s.Members())
	}
	for v := range pi.Parts[1].Members {
		if !s.HoldsMember(v) {
			t.Fatalf("member %d not held", v)
		}
	}
	for v := range pi.Parts[0].Members {
		if s.HoldsMember(v) {
			t.Fatalf("foreign member %d held", v)
		}
	}
}

func TestPrecomputeIsIdempotentAndEpochAware(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 1000, AvgOutDegree: 2, Seed: 9})
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(pi.Parts[0], 1)
	st1, err := s.Precompute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A second call reuses the cache (same stats back, no recompute).
	st2, err := s.Precompute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("recompute happened: %+v vs %+v", st1, st2)
	}
	pa1, err := s.Evaluate(context.Background(), control.Query{S: 900, T: 950}, EvalOptions{UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pa1.FromCache || pa1.Reduced == nil {
		t.Fatalf("partial = %+v", pa1)
	}
	epoch1 := pa1.Epoch
	// Conditional fetch with the current epoch: not modified.
	pa2, err := s.Evaluate(context.Background(), control.Query{S: 900, T: 950},
		EvalOptions{UseCache: true, HasIfEpoch: true, IfEpoch: epoch1})
	if err != nil {
		t.Fatal(err)
	}
	if !pa2.NotModified || pa2.Reduced != nil {
		t.Fatalf("partial = %+v", pa2)
	}
	// Invalidation (a mark) bumps the epoch; the conditional fetch ships again.
	if _, err := s.Apply(store.Record{Kind: store.KindMark}); err != nil {
		t.Fatal(err)
	}
	pa3, err := s.Evaluate(context.Background(), control.Query{S: 900, T: 950},
		EvalOptions{UseCache: true, HasIfEpoch: true, IfEpoch: epoch1})
	if err != nil {
		t.Fatal(err)
	}
	if pa3.NotModified || pa3.Reduced == nil || pa3.Epoch == epoch1 {
		t.Fatalf("partial = %+v", pa3)
	}
}

func TestEvaluateEndpointSitesNeverUseCache(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 1000, AvgOutDegree: 2, Seed: 9})
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(pi.Parts[0], 1)
	if _, err := s.Precompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	// s-query endpoint inside this partition: live evaluation, never the
	// query-independent cache (which excludes s only as a boundary node).
	pa, err := s.Evaluate(context.Background(), control.Query{S: 5, T: 900}, EvalOptions{UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if pa.FromCache {
		t.Fatal("endpoint site served the query-independent cache")
	}
	// The reduced partial keeps s alive.
	if pa.Ans == control.Unknown && !pa.Reduced.Alive(5) {
		t.Fatal("endpoint removed from partial answer")
	}
}

// TestUpdateUnknownOwnedCompanyRollsBack: a stake in a company no site
// hosts is rejected by the coordinator and the provisionally stored edge is
// rolled back.
func TestUpdateUnknownOwnedCompanyRollsBack(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(3) // id 3 exists nowhere
	pi, err := partition.Split(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*Site, 2)
	clients := make([]SiteClient, 2)
	for i, p := range pi.Parts {
		sites[i] = NewSite(p, 1)
		clients[i] = &LocalClient{Site: sites[i]}
	}
	coord := NewCoordinator(clients, Options{Workers: 1})
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 0, Owned: 3, Weight: 0.2}); err == nil {
		t.Fatal("stake in an unknown company accepted")
	}
	// The provisional edge must be gone everywhere.
	for i, s := range sites {
		if s.part.Local.HasEdge(0, 3) {
			t.Fatalf("site %d kept the dangling stake", i)
		}
	}
	if sites[0].part.CrossOut != 0 {
		t.Fatalf("cross-out = %d after rollback", sites[0].part.CrossOut)
	}
}
