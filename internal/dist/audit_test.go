package dist

import (
	"context"
	"strings"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs"
)

func TestStoreScrubProbeMemoryOnlySite(t *testing.T) {
	g := gen.Random(50, 150, 5)
	coord, pi := localCluster(t, g, 2, Options{})
	_ = coord
	s := NewSite(pi.Parts[0], 1)
	probe := s.StoreScrubProbe(4)
	if probe.Name != "store.scrub" {
		t.Fatalf("probe name = %q", probe.Name)
	}
	r := probe.Check()
	if !r.OK || !strings.Contains(r.Detail, "memory-only") {
		t.Fatalf("memory-only site scrub = %+v", r)
	}
}

func TestCachedEpochGaugesExported(t *testing.T) {
	g := gen.Random(100, 300, 6)
	o := obs.NewObserver(obs.ObserverConfig{})
	coord, _ := localCluster(t, g, 2, Options{UseCache: true, ForcePartial: true, Workers: 1, Observer: o})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	// Cross-partition queries force the merge path, which caches partials.
	for s := 0; s < 10; s++ {
		for t2 := 90; t2 < 100; t2++ {
			q := control.Query{S: graph.NodeID(s), T: graph.NodeID(t2)}
			if _, _, err := coord.Answer(context.Background(), q); err != nil {
				t.Fatalf("query: %v", err)
			}
		}
	}
	var gauges int
	for _, v := range o.Registry().Snapshot() {
		if v.Name == "ccp_coord_cached_epoch" {
			gauges++
		}
	}
	if gauges != 2 {
		t.Fatalf("%d ccp_coord_cached_epoch series, want one per site (2)", gauges)
	}
}
