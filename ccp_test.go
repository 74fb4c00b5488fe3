package ccp_test

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"

	"ccp"
	"ccp/internal/datalog"
	"ccp/internal/dist"
	"ccp/internal/pathenum"
)

// holding builds the quickstart graph: 0 controls 1 directly, 1 and 2
// jointly give 0 control of 3.
func holding(t *testing.T) *ccp.Graph {
	t.Helper()
	g := ccp.NewGraph(4)
	for _, e := range []ccp.Edge{
		{From: 0, To: 1, Weight: 0.6},
		{From: 0, To: 2, Weight: 0.55},
		{From: 1, To: 3, Weight: 0.30},
		{From: 2, To: 3, Weight: 0.25},
	} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestControls(t *testing.T) {
	g := holding(t)
	if !ccp.Controls(g, 0, 1) {
		t.Fatal("direct control missed")
	}
	if !ccp.Controls(g, 0, 3) {
		t.Fatal("indirect joint control missed")
	}
	if ccp.Controls(g, 1, 3) {
		t.Fatal("30% is not control")
	}
}

func TestControlledSet(t *testing.T) {
	g := holding(t)
	set := ccp.ControlledSet(g, 0)
	if len(set) != 4 {
		t.Fatalf("set = %v", set)
	}
}

func TestReduceDecides(t *testing.T) {
	g := holding(t)
	res, err := ccp.Reduce(context.Background(), g, 0, 3, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Controls {
		t.Fatalf("res = %+v", res)
	}
	// The original is untouched.
	if g.NumNodes() != 4 {
		t.Fatal("Reduce mutated its input")
	}
	// With boundary nodes kept, the reduction may stay undecided but must
	// keep the exclusion set.
	res2, err := ccp.Reduce(context.Background(), g, 0, 3, ccp.NewNodeSet(1, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []ccp.NodeID{0, 1, 2, 3} {
		if !res2.Reduced.Alive(v) {
			t.Fatalf("excluded node %d removed", v)
		}
	}
}

func TestDeclarativeAndPathEnumerationAgree(t *testing.T) {
	g := ccp.GenerateRandom(16, 40, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		s := ccp.NodeID(rng.Intn(16))
		tt := ccp.NodeID(rng.Intn(16))
		want := ccp.Controls(g, s, tt)
		decl, err := datalog.Controls(g, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if decl != want {
			t.Fatalf("declarative(%d,%d) = %v, want %v", s, tt, decl, want)
		}
		pe := pathenum.Controls(g, ccp.Query{S: s, T: tt}, pathenum.Config{})
		if pe.Truncated || pe.Answer != want {
			t.Fatalf("pathenum(%d,%d) = %v (trunc %v), want %v", s, tt, pe.Answer, pe.Truncated, want)
		}
	}
}

func TestLocalClusterMatchesCentralized(t *testing.T) {
	eu := ccp.GenerateEU(ccp.EUConfig{Countries: 3, NodesPerCountry: 1200, InterconnectRate: 0.01, Seed: 11})
	cl, err := ccp.NewClusterFromAssignment(eu.G, eu.Country, eu.Countries, ccp.ClusterOptions{
		UseCache:    true,
		SiteWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Sites() != 3 {
		t.Fatalf("sites = %d", cl.Sites())
	}
	if err := cl.Precompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 15; i++ {
		s := ccp.NodeID(rng.Intn(eu.G.Cap()))
		tt := ccp.NodeID(rng.Intn(eu.G.Cap()))
		want := ccp.Controls(eu.G, s, tt)
		got, _, err := cl.Controls(context.Background(), s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cluster(%d,%d) = %v, want %v", s, tt, got, want)
		}
	}
}

func TestRemoteClusterOverTCP(t *testing.T) {
	g := ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: 2000, AvgOutDegree: 2, Seed: 21})
	pi, err := ccp.PartitionContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i, p := range pi.Parts {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func(p *ccp.Partition) { _ = ccp.ServeSite(context.Background(), l, p, 2) }(p)
		addrs[i] = l.Addr().String()
	}
	cl, err := ccp.ConnectCluster(context.Background(), addrs, ccp.ClusterOptions{SiteWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Sites() != 2 {
		t.Fatalf("sites = %d", cl.Sites())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		s := ccp.NodeID(rng.Intn(2000))
		tt := ccp.NodeID(rng.Intn(2000))
		want := ccp.Controls(g, s, tt)
		got, _, err := cl.Controls(context.Background(), s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("remote cluster(%d,%d) = %v, want %v", s, tt, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	g := ccp.GenerateItalian(ccp.ItalianConfig{Nodes: 20_000, Seed: 5})
	s := ccp.Summarize(g)
	if s.Nodes != 20_000 || s.Edges == 0 || s.LargestWCC == 0 {
		t.Fatalf("summary = %+v", s)
	}
	var sb strings.Builder
	if _, err := ccp.Report(g).WriteTo(&sb); err != nil || !strings.Contains(sb.String(), "top owners") {
		t.Fatalf("report: %v", err)
	}
}

func TestGenerateRIAD(t *testing.T) {
	g := ccp.GenerateRIAD(ccp.RIADConfig{Nodes: 5000, Seed: 1})
	if g.NumNodes() != 5000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if _, err := g.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
}

// Ensure the dist package's EvalOptions remain reachable through the facade
// behaviorally: a cluster with ForcePartial unset still answers correctly
// when sites decide locally.
func TestClusterLocalDecision(t *testing.T) {
	g := ccp.NewGraph(4)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 0.9); err != nil {
		t.Fatal(err)
	}
	cl, err := ccp.NewLocalCluster(g, 2, ccp.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := cl.Controls(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got || m.DecidedBySite != 0 {
		t.Fatalf("got %v, metrics %+v", got, m)
	}
	_ = dist.EvalOptions{} // the type is part of the internal contract
}
