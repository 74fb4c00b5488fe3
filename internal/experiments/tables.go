package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ccp/internal/control"
	"ccp/internal/datalog"
	"ccp/internal/gen"
	"ccp/internal/graph"
)

// TrafficRow is one row of the Section VIII-C network-traffic table: average
// partition size P, average partial-result size R, merged-graph size MGraph,
// and the total network traffic.
type TrafficRow struct {
	PartitionNodes, PartitionEdges int
	PartialNodes, PartialEdges     int
	MergedNodes, MergedEdges       int
	Bytes                          int64
}

func (r TrafficRow) String() string {
	return fmt.Sprintf("P=%d|%d  R=%d|%d  MGraph=%d|%d  traffic=%.2fKB",
		r.PartitionNodes, r.PartitionEdges,
		r.PartialNodes, r.PartialEdges,
		r.MergedNodes, r.MergedEdges,
		float64(r.Bytes)/1024)
}

// NetworkTraffic reproduces the traffic table: 4 sites, 0.1% interconnection
// rate, partition size swept, reporting sizes and bytes shipped.
func NetworkTraffic(cfg Config) ([]TrafficRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []TrafficRow
	for _, per := range []int{4000, 5000, 6000, 7000, 8000} {
		per = cfg.scaled(per)
		c, err := buildEUCluster(cfg, 4, per, 0.001, 5, cfg.Seed+int64(per), false)
		if err != nil {
			return nil, err
		}
		q := pickQuery(c.g, rng)
		_, m, err := c.coord.Answer(context.Background(), q)
		if err != nil {
			return nil, err
		}
		sites := len(c.sites)
		var pe int
		for _, p := range c.pi.Parts {
			pe += p.Local.NumEdges()
		}
		out = append(out, TrafficRow{
			PartitionNodes: c.g.NumNodes() / sites,
			PartitionEdges: pe / sites,
			PartialNodes:   m.PartialNodes / sites,
			PartialEdges:   m.PartialEdges / sites,
			MergedNodes:    m.MGraphNodes,
			MergedEdges:    m.MGraphEdges,
			Bytes:          m.Bytes,
		})
	}
	return out, nil
}

// RIADResult reports the RIAD experiment: the parallel runtime (the paper
// measured 6.71s on the real register) and the speedup over the serial
// baseline (the paper reports ~100x).
type RIADResult struct {
	Nodes, Edges int
	Parallel     time.Duration
	Serial       time.Duration
	Speedup      float64
}

func (r RIADResult) String() string {
	return fmt.Sprintf("RIAD n=%d m=%d parallel=%v serial=%v speedup=%.1fx",
		r.Nodes, r.Edges, r.Parallel, r.Serial, r.Speedup)
}

// RIAD measures the parallel reduction and the serial fixpoint baseline on
// the RIAD-like register.
func RIAD(cfg Config) (RIADResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := gen.RIAD(gen.RIADConfig{Nodes: cfg.scaled(30_000), Seed: cfg.Seed})
	q := pickHubQuery(g, rng)
	res := RIADResult{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	res.Parallel = timeReduction(cfg, g, q)
	res.Serial = timeIt(cfg.Repeats, func() {
		control.SerialBaselineSet(g, q.S)
	})
	if res.Parallel > 0 {
		res.Speedup = float64(res.Serial) / float64(res.Parallel)
	}
	return res, nil
}

// SerialRow compares the parallel algorithm against the serial baseline on
// scale-free graphs of increasing density (Section VIII-D reports gains of
// 60–100x, shrinking as density grows beyond realistic levels).
type SerialRow struct {
	Degree       float64
	Nodes, Edges int
	Parallel     time.Duration
	Serial       time.Duration
	Speedup      float64
}

func (r SerialRow) String() string {
	return fmt.Sprintf("deg=%-4g n=%d m=%d parallel=%v serial=%v speedup=%.1fx",
		r.Degree, r.Nodes, r.Edges, r.Parallel, r.Serial, r.Speedup)
}

// SerialSpeedup sweeps graph density and measures parallel vs serial.
func SerialSpeedup(cfg Config) ([]SerialRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []SerialRow
	for _, deg := range []float64{2, 5, 10} {
		n := cfg.scaled(20_000)
		g := gen.ScaleFree(gen.ScaleFreeConfig{
			Nodes:        n,
			AvgOutDegree: deg,
			Seed:         cfg.Seed + int64(deg),
		})
		q := pickHubQuery(g, rng)
		row := SerialRow{Degree: deg, Nodes: g.NumNodes(), Edges: g.NumEdges()}
		row.Parallel = timeReduction(cfg, g, q)
		row.Serial = timeIt(cfg.Repeats, func() {
			control.SerialBaselineSet(g, q.S)
		})
		if row.Parallel > 0 {
			row.Speedup = float64(row.Serial) / float64(row.Parallel)
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRow compares algorithm variants on the same graph and query.
type AblationRow struct {
	Variant string
	Elapsed time.Duration
}

func (r AblationRow) String() string {
	return fmt.Sprintf("%-24s %v", r.Variant, r.Elapsed)
}

// Ablations measures the design choices of the algorithm: phase separation,
// early termination, representative-based contraction, and the solver
// choice (reduction vs CBE vs naive serial). A fast wrong engine is not an
// ablation: every variant must give CBE's answer before it is timed, and any
// error fails the experiment.
func Ablations(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := gen.Italian(gen.ItalianConfig{Nodes: cfg.scaled(60_000), Seed: cfg.Seed})
	q := pickQuery(g, rng)
	x := graph.NewNodeSet(q.S, q.T)
	want := control.CBE(g, q)

	var out []AblationRow
	row := func(variant string, answer func() (bool, error)) error {
		got, err := answer()
		if err == nil && got != want {
			err = fmt.Errorf("answers %v on control(%d,%d), CBE says %v", got, q.S, q.T, want)
		}
		elapsed := timeIt(cfg.Repeats, func() {
			if _, terr := answer(); terr != nil && err == nil {
				err = terr
			}
		})
		if err != nil {
			return fmt.Errorf("ablation %q: %w", variant, err)
		}
		out = append(out, AblationRow{Variant: variant, Elapsed: elapsed})
		return nil
	}

	// DisableTermination only skips the per-round checks; the trust still
	// lets the final check decide a false answer.
	reductions := []struct {
		name string
		opts control.Options
	}{
		{"parallel (default)", control.Options{Workers: cfg.Workers, Trust: control.FullTrust}},
		{"two-phase only", control.Options{Workers: cfg.Workers, Trust: control.FullTrust, TwoPhaseOnly: true}},
		{"no early termination", control.Options{Workers: cfg.Workers, Trust: control.FullTrust, DisableTermination: true}},
		{"naive contraction", control.Options{Workers: cfg.Workers, Trust: control.FullTrust, NaiveContraction: true}},
		{"full rescan", control.Options{Workers: cfg.Workers, Trust: control.FullTrust, FullRescan: true}},
		{"single worker", control.Options{Workers: 1, Trust: control.FullTrust}},
	}
	for _, v := range reductions {
		err := row(v.name, func() (bool, error) {
			res, err := control.ParallelReduction(context.Background(), g.Clone(), q, x, v.opts)
			if err == nil && res.Ans == control.Unknown {
				err = errors.New("reduction left the query undecided")
			}
			return res.Ans == control.True, err
		})
		if err != nil {
			return nil, err
		}
	}
	if err := row("CBE worklist", func() (bool, error) { return control.CBE(g, q), nil }); err != nil {
		return nil, err
	}
	// The declarative engine — the executable specification — reading g in
	// place and running the bottom-up fixpoint from the query's source.
	if err := row("datalog semi-naive", func() (bool, error) { return datalog.Controls(g, q.S, q.T) }); err != nil {
		return nil, err
	}
	return out, nil
}
