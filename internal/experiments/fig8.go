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
	"ccp/internal/par"
	"ccp/internal/partition"
)

// euCluster generates an EU graph and serves it from in-process sites, one
// per country.
type euCluster struct {
	g     *graph.Graph
	pi    *partition.Partitioning
	sites []*dist.Site
	coord *dist.Coordinator
}

func buildEUCluster(cfg Config, countries, perCountry int, rate float64, degree float64, seed int64, useCache bool) (*euCluster, error) {
	eu := gen.EU(gen.EUConfig{
		Countries:        countries,
		NodesPerCountry:  perCountry,
		InterconnectRate: rate,
		AvgOutDegree:     degree,
		Seed:             seed,
	})
	pi, err := partition.ByContiguous(eu.G, countries)
	if err != nil {
		return nil, err
	}
	c := &euCluster{g: eu.G, pi: pi}
	clients := make([]dist.SiteClient, countries)
	for i, p := range pi.Parts {
		s := dist.NewSite(p, cfg.Workers)
		c.sites = append(c.sites, s)
		clients[i] = &dist.LocalClient{Site: s, MeasureBytes: true}
	}
	// ForcePartial: measurement runs always exercise the full partial
	// evaluation + merge pipeline, like the paper's distributed timings;
	// otherwise a site's early termination answer would short-circuit the
	// machinery under measurement.
	c.coord = dist.NewCoordinator(clients, dist.Options{
		UseCache:        useCache,
		ForcePartial:    true,
		SequentialSites: true,
		Workers:         cfg.Workers,
	})
	return c, nil
}

// DistPoint is one measurement of a distributed query evaluation.
type DistPoint struct {
	// X is the swept quantity (nodes per partition, #partitions, or the
	// interconnection rate in percent, depending on the experiment).
	X float64
	// SiteTime is the slowest site's partial evaluation (the light-blue
	// area of Figure 8.a); CoordTime is the merge + final reduction (grey).
	SiteTime, CoordTime time.Duration
	// Total is SiteTime + CoordTime: the elapsed time of a deployment where
	// every site is its own machine and sites evaluate concurrently — the
	// quantity the paper plots. (When the harness runs all sites in one
	// process, the local wall clock instead serializes the sites.)
	Total time.Duration
	// Bytes is the partial-answer traffic.
	Bytes int64
}

func (p DistPoint) String() string {
	return fmt.Sprintf("x=%-10.4g site=%-12v coord=%-12v total=%-12v traffic=%dB",
		p.X, p.SiteTime, p.CoordTime, p.Total, p.Bytes)
}

// runDistQuery times one distributed evaluation end to end.
func runDistQuery(c *euCluster, q control.Query, repeats int) (DistPoint, error) {
	var pt DistPoint
	var lastErr error
	var site, coord time.Duration
	for i := 0; i < repeats; i++ {
		_, m, err := c.coord.Answer(context.Background(), q)
		if err != nil {
			lastErr = err
			break
		}
		site += m.SiteElapsedMax
		coord += m.CoordElapsed
		pt.Bytes = m.Bytes
	}
	pt.SiteTime = site / time.Duration(repeats)
	pt.CoordTime = coord / time.Duration(repeats)
	pt.Total = pt.SiteTime + pt.CoordTime
	return pt, lastErr
}

// Fig8a measures elapsed time varying the size of each partition (4
// partitions, 1% interconnection): the paper reports linear scaling with
// most time spent at the sites.
func Fig8a(cfg Config) ([]DistPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []DistPoint
	for _, per := range []int{2000, 4000, 8000, 16000} {
		per = cfg.scaled(per)
		c, err := buildEUCluster(cfg, 4, per, 0.01, 3, cfg.Seed+int64(per), false)
		if err != nil {
			return nil, err
		}
		q := pickQuery(c.g, rng)
		pt, err := runDistQuery(c, q, cfg.Repeats)
		if err != nil {
			return nil, err
		}
		pt.X = float64(per)
		out = append(out, pt)
	}
	return out, nil
}

// Fig8b measures elapsed time varying the number of partitions at fixed
// partition size: roughly linear in the total graph size.
func Fig8b(cfg Config) ([]DistPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	per := cfg.scaled(5000)
	var out []DistPoint
	for _, k := range []int{2, 4, 6, 8, 10} {
		c, err := buildEUCluster(cfg, k, per, 0.01, 3, cfg.Seed+int64(k), false)
		if err != nil {
			return nil, err
		}
		q := pickQuery(c.g, rng)
		pt, err := runDistQuery(c, q, cfg.Repeats)
		if err != nil {
			return nil, err
		}
		pt.X = float64(k)
		out = append(out, pt)
	}
	return out, nil
}

// Fig8c measures elapsed time varying the interconnection rate: higher
// rates grow the boundary sets, the partial answers, and the share of work
// performed at the coordinator.
func Fig8c(cfg Config) ([]DistPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	per := cfg.scaled(5000)
	var out []DistPoint
	for _, rate := range []float64{0.001, 0.005, 0.01, 0.02, 0.05} {
		c, err := buildEUCluster(cfg, 4, per, rate, 3, cfg.Seed+int64(rate*1e4), false)
		if err != nil {
			return nil, err
		}
		q := pickQuery(c.g, rng)
		pt, err := runDistQuery(c, q, cfg.Repeats)
		if err != nil {
			return nil, err
		}
		pt.X = rate * 100
		out = append(out, pt)
	}
	return out, nil
}

// ParPoint is one measurement of the centralized parallel reduction.
type ParPoint struct {
	// X is the swept quantity (cores, nodes or edges).
	X float64
	// Series distinguishes sweeps that plot several curves (e.g. the
	// out-degree in Figure 8.f); empty otherwise.
	Series string
	// Elapsed is the average reduction time.
	Elapsed time.Duration
}

func (p ParPoint) String() string {
	if p.Series != "" {
		return fmt.Sprintf("x=%-10.4g series=%-8s elapsed=%v", p.X, p.Series, p.Elapsed)
	}
	return fmt.Sprintf("x=%-10.4g elapsed=%v", p.X, p.Elapsed)
}

// timeReduction times the parallel reduction of g for query q using cfg's
// worker count, repeats and engine choice; the graph is cloned outside the
// timer. Early termination is disabled so that every point measures the same
// full-reduction work (the Ablations experiment quantifies what early
// termination saves).
func timeReduction(cfg Config, g *graph.Graph, q control.Query) time.Duration {
	var total time.Duration
	for i := 0; i < cfg.Repeats; i++ {
		clone := g.Clone()
		start := time.Now()
		control.ParallelReduction(context.Background(), clone, q, graph.NewNodeSet(q.S, q.T), control.Options{
			Workers:            cfg.Workers,
			DisableTermination: true,
		})
		total += time.Since(start)
	}
	return total / time.Duration(cfg.Repeats)
}

// Fig8d measures elapsed time on the Italian graph varying the number of
// cores: the paper reports near-linear speedup with diminishing returns
// beyond 10 cores.
//
// Because the host may have fewer cores than the sweep asks for, the
// reported time is the par.Meter critical-path estimate: the wall clock the
// same run would take with one dedicated core per worker. On a host that
// really has the cores, the estimate approaches the measured time.
func Fig8d(cfg Config) ([]ParPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := gen.Italian(gen.ItalianConfig{Nodes: cfg.scaled(60_000), Seed: cfg.Seed})
	q := pickQuery(g, rng)
	var out []ParPoint
	for _, cores := range []int{2, 4, 8, 12, 16, 20} {
		// Take the minimum over repeats: the critical-path estimate is
		// noisy upward (GC pauses and scheduler jitter land inside single
		// blocks), never downward.
		var best time.Duration
		for r := 0; r < cfg.Repeats; r++ {
			clone := g.Clone()
			meter := par.NewMeter()
			control.ParallelReduction(context.Background(), clone, q, graph.NewNodeSet(q.S, q.T), control.Options{
				Workers:            cores,
				DisableTermination: true,
				Meter:              meter,
			})
			meter.Stop()
			if sim := meter.SimulatedElapsed(); best == 0 || sim < best {
				best = sim
			}
		}
		out = append(out, ParPoint{X: float64(cores), Elapsed: best})
	}
	return out, nil
}

// Fig8e measures elapsed time on the Italian graph varying the node count
// 4M→8M (scaled): the paper reports sub-linear growth (2x nodes → 1.7x
// time).
func Fig8e(cfg Config) ([]ParPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []ParPoint
	for _, n := range []int{40_000, 50_000, 60_000, 70_000, 80_000} {
		n = cfg.scaled(n)
		g := gen.Italian(gen.ItalianConfig{Nodes: n, Seed: cfg.Seed + int64(n)})
		q := pickQuery(g, rng)
		out = append(out, ParPoint{
			X:       float64(n),
			Elapsed: timeReduction(cfg, g, q),
		})
	}
	return out, nil
}

// Fig8f measures elapsed time on synthetic scale-free graphs varying the
// edge count at several out-degrees: linear in edges, and sparser graphs
// (same edges, lower degree — i.e. more nodes) are processed faster per
// edge... the paper reports dividing the out-degree by 10 makes runs ~6x
// faster at equal edge count.
func Fig8f(cfg Config) ([]ParPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []ParPoint
	for _, deg := range []float64{2, 5, 20} {
		for _, edges := range []int{40_000, 80_000, 160_000, 320_000} {
			edges = cfg.scaled(edges)
			nodes := edges / int(deg)
			if nodes < 32 {
				continue
			}
			g := gen.ScaleFree(gen.ScaleFreeConfig{
				Nodes:        nodes,
				AvgOutDegree: deg,
				Seed:         cfg.Seed + int64(edges) + int64(deg),
			})
			q := pickQuery(g, rng)
			out = append(out, ParPoint{
				X:       float64(g.NumEdges()),
				Series:  fmt.Sprintf("deg=%g", deg),
				Elapsed: timeReduction(cfg, g, q),
			})
		}
	}
	return out, nil
}

// SpeedupPoint is one distributed-vs-centralized (or cached-vs-uncached)
// measurement.
type SpeedupPoint struct {
	// PartitionNodes is the partition size; Rate the interconnection rate.
	PartitionNodes int
	Rate           float64
	// Baseline and Improved are the two elapsed times; Speedup their ratio.
	Baseline, Improved time.Duration
	Speedup            float64
}

func (p SpeedupPoint) String() string {
	return fmt.Sprintf("per-partition=%-8d rate=%-6.2g%% baseline=%-12v improved=%-12v speedup=%.2fx",
		p.PartitionNodes, p.Rate*100, p.Baseline, p.Improved, p.Speedup)
}

// Fig8g measures the speedup of the distributed algorithm over centralized
// processing (T_C / T_D) by partition size, for several interconnection
// rates.
func Fig8g(cfg Config) ([]SpeedupPoint, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []SpeedupPoint
	for _, rate := range []float64{0.001, 0.01} {
		for _, per := range []int{2000, 4000, 8000, 16000} {
			per = cfg.scaled(per)
			c, err := buildEUCluster(cfg, 4, per, rate, 3, cfg.Seed+int64(per), false)
			if err != nil {
				return nil, err
			}
			q := pickQuery(c.g, rng)
			tc := timeReduction(cfg, c.g, q)
			pt, err := runDistQuery(c, q, cfg.Repeats)
			if err != nil {
				return nil, err
			}
			sp := SpeedupPoint{
				PartitionNodes: per,
				Rate:           rate,
				Baseline:       tc,
				Improved:       pt.Total,
			}
			if pt.Total > 0 {
				sp.Speedup = float64(tc) / float64(pt.Total)
			}
			out = append(out, sp)
		}
	}
	return out, nil
}

// Fig8h measures the speedup of pre-caching query-independent partial
// results over evaluating every site live, by partition size and
// interconnection rate. Following the paper, the compared quantity is the
// *total computation cost* of a query — the summed site evaluation times
// plus the coordinator time — since caching saves work at the non-endpoint
// sites without changing the slowest (endpoint) site.
func Fig8h(cfg Config) ([]SpeedupPoint, error) {
	cfg = cfg.withDefaults()
	totalCost := func(c *euCluster, q control.Query) (time.Duration, error) {
		var sum time.Duration
		for i := 0; i < cfg.Repeats; i++ {
			_, m, err := c.coord.Answer(context.Background(), q)
			if err != nil {
				return 0, err
			}
			sum += m.SiteElapsedSum + m.CoordElapsed
		}
		return sum / time.Duration(cfg.Repeats), nil
	}
	var out []SpeedupPoint
	err := fig8hPoints(cfg, func(p fig8hPoint) error {
		noCache, err := totalCost(p.noCache, p.q)
		if err != nil {
			return err
		}
		cached, err := totalCost(p.cached, p.q)
		if err != nil {
			return err
		}
		sp := SpeedupPoint{
			PartitionNodes: p.per,
			Rate:           p.rate,
			Baseline:       noCache,
			Improved:       cached,
		}
		if cached > 0 {
			sp.Speedup = float64(noCache) / float64(cached)
		}
		out = append(out, sp)
		return nil
	})
	return out, err
}

// fig8hPoint is one point of Fig. 8.h: the same graph served by a cluster
// that evaluates every site live and by a pre-cached one, and the query both
// answer.
type fig8hPoint struct {
	per             int
	rate            float64
	noCache, cached *euCluster
	q               control.Query
}

// fig8hPoints builds Fig. 8.h's points in sweep order and hands each to do,
// stopping at the first error.
func fig8hPoints(cfg Config, do func(fig8hPoint) error) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, rate := range []float64{0.001, 0.01} {
		for _, per := range []int{2000, 4000, 8000, 16000} {
			per = cfg.scaled(per)
			p := fig8hPoint{per: per, rate: rate}
			var err error
			if p.noCache, err = buildEUCluster(cfg, 4, per, rate, 3, cfg.Seed+int64(per), false); err != nil {
				return err
			}
			p.q = pickQuery(p.noCache.g, rng)
			if p.cached, err = buildEUCluster(cfg, 4, per, rate, 3, cfg.Seed+int64(per), true); err != nil {
				return err
			}
			if err := p.cached.coord.PrecomputeAll(context.Background()); err != nil {
				return err
			}
			if err := do(p); err != nil {
				return err
			}
		}
	}
	return nil
}
