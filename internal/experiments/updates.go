package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// UpdateLatencyResult measures property 4 of Section VII: with static data
// everything non-endpoint is served from caches; an update invalidates only
// the touched sites, which pay one re-reduction on the next query.
type UpdateLatencyResult struct {
	// Warm is the steady-state query latency with all caches valid
	// (coordinator copies revalidated by epoch).
	Warm time.Duration
	// AfterUpdate is the first query's latency after one stake update
	// landed at a non-endpoint site (that site recomputes its partial).
	AfterUpdate time.Duration
	// Recovered is the next query's latency (caches warm again).
	Recovered time.Duration
}

func (r UpdateLatencyResult) String() string {
	return fmt.Sprintf("warm=%v after-update=%v recovered=%v", r.Warm, r.AfterUpdate, r.Recovered)
}

// updateCluster is UpdateLatency's set-up: a pre-cached 4-site cluster over
// gen.EU, a query with its endpoints in partitions 0 and 3, so partitions 1
// and 2 serve caches, and a stake update that lands inside partition 1.
type updateCluster struct {
	coord *dist.Coordinator
	g     *graph.Graph // the global graph, before the update
	pi    *partition.Partitioning
	q     control.Query
	up    dist.StakeUpdate
}

func newUpdateCluster(cfg Config) (*updateCluster, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	per := cfg.scaled(8000)
	eu := gen.EU(gen.EUConfig{
		Countries:        4,
		NodesPerCountry:  per,
		InterconnectRate: 0.01,
		AvgOutDegree:     3,
		Seed:             cfg.Seed,
	})
	pi, err := partition.ByContiguous(eu.G, 4)
	if err != nil {
		return nil, err
	}
	clients := make([]dist.SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		clients[i] = &dist.LocalClient{Site: dist.NewSite(p, cfg.Workers)}
	}
	c := &updateCluster{g: eu.G, pi: pi}
	c.coord = dist.NewCoordinator(clients, dist.Options{
		UseCache: true,
		Workers:  cfg.Workers,
	})
	if err := c.coord.PrecomputeAll(context.Background()); err != nil {
		return nil, err
	}
	c.q = control.Query{
		S: graph.NodeID(rng.Intn(per)),
		T: graph.NodeID(3*per + rng.Intn(per)),
	}
	// The stake's owned company has spare equity.
	owner := graph.NodeID(per)
	owned := graph.None
	for v := per + 1; v < 2*per; v++ {
		if eu.G.InSum(graph.NodeID(v)) < 0.9 && !eu.G.HasEdge(owner, graph.NodeID(v)) {
			owned = graph.NodeID(v)
			break
		}
	}
	if owned == graph.None {
		return nil, fmt.Errorf("experiments: no update candidate in partition 1")
	}
	c.up = dist.StakeUpdate{Owner: owner, Owned: owned, Weight: 0.02}
	return c, nil
}

// UpdateLatency builds a cached 4-site cluster and measures query latency
// around a data update.
func UpdateLatency(cfg Config) (UpdateLatencyResult, error) {
	cfg = cfg.withDefaults()
	c, err := newUpdateCluster(cfg)
	if err != nil {
		return UpdateLatencyResult{}, err
	}
	timeQuery := func() (time.Duration, error) {
		var total time.Duration
		for i := 0; i < cfg.Repeats; i++ {
			start := time.Now()
			if _, _, err := c.coord.Answer(context.Background(), c.q); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total / time.Duration(cfg.Repeats), nil
	}
	var res UpdateLatencyResult
	if _, _, err := c.coord.Answer(context.Background(), c.q); err != nil { // prime the coordinator copies
		return res, err
	}
	if res.Warm, err = timeQuery(); err != nil {
		return res, err
	}
	if err := c.coord.ApplyUpdate(context.Background(), c.up); err != nil {
		return res, err
	}
	start := time.Now()
	if _, _, err := c.coord.Answer(context.Background(), c.q); err != nil {
		return res, err
	}
	res.AfterUpdate = time.Since(start)
	if res.Recovered, err = timeQuery(); err != nil {
		return res, err
	}
	return res, nil
}
