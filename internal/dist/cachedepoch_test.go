package dist

import (
	"context"
	"slices"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs"
)

// cachedEpochs reads every ccp_coord_cached_epoch series.
func cachedEpochs(o *obs.Observer) []float64 {
	var epochs []float64
	for _, v := range o.Registry().Snapshot() {
		if v.Name == "ccp_coord_cached_epoch" {
			epochs = append(epochs, v.Value)
		}
	}
	return epochs
}

// TestCachedEpochGaugesExported: one gauge per site, reading -1 until the
// coordinator holds a copy, then the copy's epoch, which is the site's.
func TestCachedEpochGaugesExported(t *testing.T) {
	g := gen.Random(100, 300, 6)
	o := obs.NewObserver(obs.ObserverConfig{})
	coord, _ := localCluster(t, g, 2, Options{UseCache: true, ForcePartial: true, Workers: 1, Observer: o})
	var epochs []float64
	for _, cl := range coord.clients {
		epochs = append(epochs, float64(cl.(*LocalClient).Site.Epoch()))
	}
	if got := cachedEpochs(o); len(got) != 2 || got[0] != -1 || got[1] != -1 {
		t.Fatalf("cached epochs before any query = %v, want [-1 -1]", got)
	}
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
	got := cachedEpochs(o)
	if len(got) != 2 {
		t.Fatalf("%d ccp_coord_cached_epoch series, want one per site (2)", len(got))
	}
	if !slices.Contains(epochs, got[0]) && !slices.Contains(epochs, got[1]) {
		t.Fatalf("cached epochs after merged queries = %v, want a copy at its site's epoch %v", got, epochs)
	}
}
