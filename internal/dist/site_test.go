package dist

import (
	"context"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
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
	// Invalidation bumps the epoch; the conditional fetch ships again.
	invalidate(s)
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
// hosts is rejected by the coordinator before any site stores an edge or
// moves its epoch.
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
	for i, s := range sites {
		if s.part.Local.HasEdge(0, 3) || s.part.Virtual.Has(3) || s.Epoch() != 0 {
			t.Fatalf("site %d stored part of the dangling stake", i)
		}
	}
}

// invalidate forces s to a new epoch with no cache, as an update that
// changes nothing a query reads would: under s.mu, the epoch moves and the
// cache goes.
func invalidate(s *Site) {
	s.mu.Lock()
	s.epoch.Add(1)
	s.cache = nil
	s.mu.Unlock()
}

// TestEvaluateEndpointEdgeCases evaluates, at one site of a two-site EU
// cluster, every pair of endpoints drawn from: a negative id, the site's id
// capacity, an id past every capacity, a company of the other site that is
// not virtual here, a virtual node, a member and an in-node — s == t
// included — live, cached and ForcePartial. Nothing may fail, a decided
// answer must equal CBE, a live undecided one must reduce the query's slice,
// and the coordinator must answer CBE.
func TestEvaluateEndpointEdgeCases(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 2, NodesPerCountry: 300, InterconnectRate: 0.02, AvgOutDegree: 3, Seed: 4})
	g := eu.G
	pi, err := partition.Split(g, eu.Country, eu.Countries)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{NewSite(pi.Parts[0], 1), NewSite(pi.Parts[1], 1)}
	coord := NewCoordinator([]SiteClient{&LocalClient{Site: sites[0]}, &LocalClient{Site: sites[1]}},
		Options{Workers: 1})
	p := pi.Parts[0]
	lowest := func(set graph.NodeSet, ok func(graph.NodeID) bool) graph.NodeID {
		best := graph.None
		for v := range set {
			if ok(v) && (best == graph.None || v < best) {
				best = v
			}
		}
		if best == graph.None {
			t.Fatal("no endpoint of a kind")
		}
		return best
	}
	any := func(graph.NodeID) bool { return true }
	ends := []graph.NodeID{
		-3,
		graph.NodeID(p.Local.Cap()),
		graph.NodeID(g.Cap() + 5),
		lowest(pi.Parts[1].Members, func(v graph.NodeID) bool { return !p.Local.Alive(v) }),
		lowest(p.Virtual, any),
		lowest(p.Members, g.HasControllingOut),
		lowest(p.InNodes, any),
	}
	ctx := context.Background()
	for _, s := range ends {
		for _, tt := range ends {
			q := control.Query{S: s, T: tt}
			want := control.CBE(g, q)
			for _, opts := range []EvalOptions{{}, {UseCache: true}, {ForcePartial: true}} {
				pa, err := sites[0].Evaluate(ctx, q, opts)
				if err != nil {
					t.Fatalf("%v %+v: %v", q, opts, err)
				}
				if pa.Ans != control.Unknown && pa.Ans.Bool() != want {
					t.Fatalf("%v %+v: site decided %v, CBE %v", q, opts, pa.Ans, want)
				}
				if pa.Ans == control.Unknown && pa.Reduced == nil {
					t.Fatalf("%v %+v: undecided partial without a graph", q, opts)
				}
				if err := checkSlice(sites[0], q, opts, pa); err != nil {
					t.Fatal(err)
				}
				pa.Release()
			}
			if got, _, err := coord.Answer(ctx, q); err != nil || got != want {
				t.Fatalf("%v: coordinator %v (%v), CBE %v", q, got, err, want)
			}
		}
	}
}

// TestEvaluateEmptySliceDecidesFalse: a member s with a controlling stake,
// so that no termination condition fires on the whole partition, that
// reaches neither t nor any virtual node has an empty slice, and the
// reducer's round-0 check decides False with no work done.
func TestEvaluateEmptySliceDecidesFalse(t *testing.T) {
	g := graph.New(6)
	for _, e := range []graph.Edge{{From: 0, To: 1, Weight: 0.6}, {From: 2, To: 3, Weight: 0.6},
		{From: 3, To: 4, Weight: 0.6}, {From: 4, To: 5, Weight: 0.6}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := partition.Split(g, []int{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(pi.Parts[0], 1)
	q := control.Query{S: 0, T: 5}
	if control.CBE(g, q) {
		t.Fatal("CBE: 0 controls 5")
	}
	for _, opts := range []EvalOptions{{}, {UseCache: true}} {
		pa, err := s.Evaluate(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Ans != control.False || pa.Reduced != nil || pa.FromCache || pa.Stats != (control.Stats{}) {
			t.Fatalf("%+v: partial %+v, want False with zero stats", opts, pa)
		}
	}
}

// undecidedQuery returns a query that a live evaluation at s leaves
// undecided, so that it ships a reduced graph, as at t's home site in a
// cross-border query: t is s's lowest in-node, and the source lies outside
// the partition, so neither T1 nor T2 is trusted.
func undecidedQuery(tb testing.TB, s *Site) control.Query {
	tb.Helper()
	q := control.Query{S: graph.NodeID(s.part.Local.Cap()), T: graph.None}
	for v := range s.part.InNodes {
		if q.T == graph.None || v < q.T {
			q.T = v
		}
	}
	pa, err := s.Evaluate(context.Background(), q, EvalOptions{})
	if err != nil || pa.Reduced == nil {
		tb.Fatalf("%v decided at site %d: %+v, %v", q, s.ID(), pa, err)
	}
	pa.Release()
	return q
}

// liveEvalAllocs is the most a warm live Site.Evaluate may allocate per
// query, whatever the partition size. A quiet run reads 1, the PartialAnswer
// header: the copy, whole partition or slice, and its reduction allocate
// nothing once the scratch pools are warm. AllocsPerRun counts the whole
// process, so the bound leaves room for goroutines that other tests in the
// package left running; a copy that rebuilt its tables would cost one
// allocation per company.
const liveEvalAllocs = 4

// TestLiveEvaluateSteadyStateAllocs evaluates one undecided query live over
// and over, releasing each partial, on two partition sizes, copying the whole
// partition (ForcePartial) and the query's slice, and pins the allocations
// per query at a constant that does not grow with the partition: the site's
// scratch keeps every table across the reduction.
func TestLiveEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops Puts at random; alloc pin does not hold")
	}
	for _, perCountry := range []int{300, 2400} {
		g := gen.EU(gen.EUConfig{Countries: 2, NodesPerCountry: perCountry, InterconnectRate: 0.01, Seed: 9}).G
		pi, err := partition.ByContiguous(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSite(pi.Parts[0], 1)
		for _, tc := range []struct {
			opts EvalOptions
			q    control.Query
		}{
			{EvalOptions{ForcePartial: true}, control.Query{S: 5, T: graph.NodeID(g.Cap() - 5)}},
			{EvalOptions{}, undecidedQuery(t, s)},
		} {
			opts := tc.opts
			eval := func() {
				pa, err := s.Evaluate(context.Background(), tc.q, opts)
				if err != nil || pa.Reduced == nil || pa.FromCache || opts.ForcePartial && pa.Stats.Removed == 0 {
					t.Fatalf("not a live reduction: partial %+v, err %v", pa, err)
				}
				pa.Release()
			}
			eval()
			allocs := testing.AllocsPerRun(50, eval)
			t.Logf("%d members, ForcePartial %v: %.0f allocs per live evaluation", s.Members(), opts.ForcePartial, allocs)
			if allocs > liveEvalAllocs {
				t.Fatalf("%d members, ForcePartial %v: live Evaluate allocated %.0f times per run, want <= %d",
					s.Members(), opts.ForcePartial, allocs, liveEvalAllocs)
			}
		}
	}
}

// TestForcePartialElapsedLeavesCopyOut: under ForcePartial a site copies its
// whole partition, and Elapsed, its share of Fig. 8.g's T_D, starts after
// the copy, as T_C's clock does. The copy is still reported, as the traced
// evaluation's graph.clone event, and the two never overlap: together they
// fit inside the wall time around the call.
func TestForcePartialElapsedLeavesCopyOut(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 2, NodesPerCountry: 8000, InterconnectRate: 0.01, Seed: 9}).G
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(pi.Parts[0], 1)
	q := control.Query{S: 5, T: graph.NodeID(g.Cap() - 5)}
	for run := 0; run < 3; run++ {
		start := time.Now()
		pa, err := s.Evaluate(context.Background(), q, EvalOptions{ForcePartial: true, QueryID: 1, Trace: true})
		wall := time.Since(start)
		if err != nil || pa.Reduced == nil {
			t.Fatalf("not a live reduction: partial %+v, err %v", pa, err)
		}
		var clone time.Duration
		for _, e := range pa.Events {
			if e.Type == flight.GraphClone {
				clone += time.Duration(e.A1)
			}
		}
		if clone == 0 || pa.Elapsed+clone > wall {
			t.Fatalf("run %d: Elapsed %v + graph.clone %v exceeds the wall time %v", run, pa.Elapsed, clone, wall)
		}
		pa.Release()
	}
}
