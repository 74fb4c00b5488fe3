package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/partition"
	"ccp/internal/reach"
)

// ContrastRow compares distributed reachability (NLOGSPACE, the Fan et al.
// baseline the paper's scheme descends from) against distributed company
// control (P-complete) on the same partitioned graph: per-site partial
// answer sizes and end-to-end time. It makes Section IX's point executable:
// reachability partial answers are boundary-sized pair sets; control
// partial answers are whole reduced subgraphs.
type ContrastRow struct {
	PartitionNodes int
	// ReachPairs is the total partial-answer size (pairs) for reachability;
	// ControlNodes/ControlEdges the total reduced-subgraph size for control.
	ReachPairs                 int
	ControlNodes, ControlEdges int
	ReachTime, ControlTime     time.Duration
}

func (r ContrastRow) String() string {
	return fmt.Sprintf("per-partition=%-8d reach: %d pairs in %-12v control: %d|%d graph in %v",
		r.PartitionNodes, r.ReachPairs, r.ReachTime, r.ControlNodes, r.ControlEdges, r.ControlTime)
}

// Contrast runs both distributed evaluations over the same EU partitioning.
func Contrast(cfg Config) ([]ContrastRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []ContrastRow
	for _, per := range []int{2000, 4000, 8000} {
		per = cfg.scaled(per)
		eu := gen.EU(gen.EUConfig{
			Countries:        4,
			NodesPerCountry:  per,
			InterconnectRate: 0.01,
			AvgOutDegree:     3,
			Seed:             cfg.Seed + int64(per),
		})
		pi, err := partition.ByContiguous(eu.G, 4)
		if err != nil {
			return nil, err
		}
		q := pickQuery(eu.G, rng)
		row := ContrastRow{PartitionNodes: per}

		start := time.Now()
		for _, p := range pi.Parts {
			pa := reach.Evaluate(p, q.S, q.T)
			row.ReachPairs += len(pa.Pairs)
		}
		row.ReachTime = time.Since(start)

		start = time.Now()
		for _, p := range pi.Parts {
			x := p.Boundary()
			x.Add(q.S)
			x.Add(q.T)
			g := p.Local.Clone()
			control.ParallelReduction(context.Background(), g, q, x, control.Options{
				Workers:            cfg.Workers,
				DisableTermination: true,
			})
			row.ControlNodes += g.NumNodes()
			row.ControlEdges += g.NumEdges()
		}
		row.ControlTime = time.Since(start)
		out = append(out, row)
	}
	return out, nil
}
