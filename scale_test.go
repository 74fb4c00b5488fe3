package ccp_test

import (
	"context"
	"testing"

	"ccp"
	"ccp/internal/control"
)

// TestMillionNodeReduction exercises the full pipeline at the scale band of
// the paper's experiments (1M companies): generation, reduction, and a
// distributed evaluation. Skipped under -short.
func TestMillionNodeReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run skipped in -short mode")
	}
	g := ccp.GenerateScaleFree(ccp.ScaleFreeConfig{
		Nodes:        1_000_000,
		AvgOutDegree: 2,
		Seed:         1,
	})
	if g.NumNodes() != 1_000_000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if _, err := g.CheckOwnership(); err != nil {
		t.Fatal(err)
	}
	s, tt := ccp.NodeID(0), ccp.NodeID(999_999)
	want := ccp.Controls(g, s, tt)

	res, err := ccp.Reduce(context.Background(), g, s, tt, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.Controls != want {
		t.Fatalf("reduction at 1M nodes: %+v, want %v", res, want)
	}
	full := reduceExhaustively(t, g, s, tt, 0)
	if full.Ans != control.Unknown && (full.Ans == control.True) != want {
		t.Fatalf("exhaustive reduction disagrees: %v, want %v", full.Ans, want)
	}
	if full.Reduced.NumNodes() > g.NumNodes()/100 {
		t.Fatalf("exhaustive reduction left %d of %d nodes", full.Reduced.NumNodes(), g.NumNodes())
	}

	cl, err := ccp.NewLocalCluster(g, 4, ccp.ClusterOptions{UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.Controls(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("distributed at 1M nodes: got %v, want %v", got, want)
	}
}
