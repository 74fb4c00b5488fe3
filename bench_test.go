package ccp_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ccp"
	"ccp/internal/control"
	"ccp/internal/datalog"
	"ccp/internal/experiments"
	"ccp/internal/graph"
)

// benchCfg keeps the figure/table regeneration benches laptop-friendly; run
// cmd/ccpbench with -scale 1 (or more) for full sweeps.
var benchCfg = experiments.Config{
	Scale:      0.1,
	Seed:       42,
	Workers:    0,
	Repeats:    1,
	PathBudget: 500 * time.Millisecond,
}

// ---- micro-benchmarks of the core operations ----

func benchGraph(b *testing.B, n int, deg float64) *ccp.Graph {
	b.Helper()
	g := ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: n, AvgOutDegree: deg, Seed: 7})
	b.ResetTimer()
	return g
}

func BenchmarkCBEQuery(b *testing.B) {
	g := benchGraph(b, 100_000, 2)
	q := control.Query{S: 0, T: graph.NodeID(g.Cap() - 1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		control.CBE(g, q)
	}
}

func BenchmarkControlledSetHub(b *testing.B) {
	g := benchGraph(b, 100_000, 2)
	for i := 0; i < b.N; i++ {
		ccp.ControlledSet(g, 0)
	}
}

func BenchmarkParallelReduction(b *testing.B) {
	g := benchGraph(b, 50_000, 2)
	q := control.Query{S: 0, T: graph.NodeID(g.Cap() - 1)}
	x := graph.NewNodeSet(q.S, q.T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := g.Clone()
		b.StartTimer()
		if _, err := control.ParallelReduction(context.Background(), clone, q, x, control.Options{DisableTermination: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// deepChainGraph builds the R3 cascade gadget: a root r owning 60% of c_1 and
// 30% of every b_j, with c_{j-1} owning the other 30% of b_j. Contracting c_j
// into r merges the two parallel 0.3 stakes in b_{j+1} into a 0.6 edge, so
// each round creates exactly one new directly-controlled node — a reduction
// with k rounds that each touch O(1) nodes, isolating per-round cost.
func deepChainGraph(b *testing.B, k int) *ccp.Graph {
	b.Helper()
	g := ccp.NewGraph(k + 2)
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(g.AddEdge(0, 1, 0.6))
	for j := 2; j <= k; j++ {
		must(g.AddEdge(0, ccp.NodeID(j), 0.3))
		must(g.AddEdge(ccp.NodeID(j-1), ccp.NodeID(j), 0.3))
	}
	must(g.AddEdge(ccp.NodeID(k), ccp.NodeID(k+1), 0.3))
	return g
}

// BenchmarkReductionRounds isolates the per-round cost of the reduction on a
// deep C3 cascade: k contraction rounds that each touch a handful of nodes.
func BenchmarkReductionRounds(b *testing.B) {
	const k = 3000
	g := deepChainGraph(b, k)
	q := control.Query{S: 0, T: graph.NodeID(k + 1)}
	x := graph.NewNodeSet(q.S, q.T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := g.Clone()
		b.StartTimer()
		res, err := control.ParallelReduction(context.Background(), clone, q, x, control.Options{DisableTermination: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Phase2Rounds < k {
			b.Fatalf("cascade collapsed in %d rounds, want %d", res.Phase2Rounds, k)
		}
	}
}

func BenchmarkBinarySerialization(b *testing.B) {
	g := benchGraph(b, 50_000, 2)
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := g.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ccp.ReadBinaryGraph(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkGenerateScaleFree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: 50_000, AvgOutDegree: 2, Seed: int64(i)})
	}
}

func BenchmarkCBEFrozen(b *testing.B) {
	g := benchGraph(b, 100_000, 2)
	f := graph.Freeze(g)
	q := control.Query{S: 0, T: ccp.NodeID(g.Cap() - 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		control.CBE(f, q)
	}
}

func BenchmarkControlGroups(b *testing.B) {
	g := benchGraph(b, 100_000, 2)
	for i := 0; i < b.N; i++ {
		ccp.ControlGroups(g)
	}
}

func BenchmarkDatalogControl(b *testing.B) {
	g := benchGraph(b, 2_000, 2)
	for i := 0; i < b.N; i++ {
		if _, err := datalog.Controls(g, 0, ccp.NodeID(g.Cap()-1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplain(b *testing.B) {
	g := benchGraph(b, 100_000, 2)
	for i := 0; i < b.N; i++ {
		ccp.Explain(g, 0, ccp.NodeID(g.Cap()-1))
	}
}

// ---- one bench per paper figure/table (Section VIII) ----
//
// Each runs the full (scaled-down) sweep of the corresponding experiment and
// reports the headline quantity as a custom metric. cmd/ccpbench prints the
// row-by-row tables.

func BenchmarkFig8aPartitionSize(b *testing.B) {
	var last []experiments.DistPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8a(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	p := last[len(last)-1]
	b.ReportMetric(float64(p.Total.Microseconds()), "µs/largest-point")
	b.ReportMetric(float64(p.CoordTime.Microseconds()), "µs/coord")
}

func BenchmarkFig8bNumPartitions(b *testing.B) {
	var last []experiments.DistPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8b(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	b.ReportMetric(float64(last[len(last)-1].Total.Microseconds()), "µs/10-partitions")
}

func BenchmarkFig8cInterconnection(b *testing.B) {
	var last []experiments.DistPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8c(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	lo, hi := last[0], last[len(last)-1]
	b.ReportMetric(float64(hi.Bytes)/float64(lo.Bytes), "traffic-growth-x")
}

func BenchmarkFig8dCores(b *testing.B) {
	var last []experiments.ParPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8d(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	speedup := float64(last[0].Elapsed) / float64(last[len(last)-1].Elapsed)
	b.ReportMetric(speedup, "speedup-2-to-20-cores")
}

func BenchmarkFig8eNodes(b *testing.B) {
	var last []experiments.ParPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8e(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	growth := float64(last[len(last)-1].Elapsed) / float64(last[0].Elapsed)
	b.ReportMetric(growth, "time-growth-2x-nodes")
}

func BenchmarkFig8fEdgesDensity(b *testing.B) {
	var last []experiments.ParPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8f(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	b.ReportMetric(float64(len(last)), "points")
}

func BenchmarkFig8gSpeedupDist(b *testing.B) {
	var last []experiments.SpeedupPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8g(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	best := 0.0
	for _, p := range last {
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	b.ReportMetric(best, "best-dist-speedup-x")
}

func BenchmarkFig8hCaching(b *testing.B) {
	var last []experiments.SpeedupPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8h(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	best := 0.0
	for _, p := range last {
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	b.ReportMetric(best, "best-cache-speedup-x")
}

func BenchmarkNetworkTraffic(b *testing.B) {
	var last []experiments.TrafficRow
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NetworkTraffic(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	r := last[len(last)-1]
	b.ReportMetric(float64(r.Bytes), "bytes/largest-row")
	b.ReportMetric(float64(r.PartitionNodes)/float64(maxInt(r.PartialNodes, 1)), "partition-to-partial-x")
}

func BenchmarkRIAD(b *testing.B) {
	var last experiments.RIADResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RIAD(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup, "speedup-vs-serial-x")
	b.ReportMetric(float64(last.Parallel.Microseconds()), "µs/parallel-run")
}

func BenchmarkSerialSpeedup(b *testing.B) {
	var last []experiments.SerialRow
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SerialSpeedup(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	best := 0.0
	for _, r := range last {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	b.ReportMetric(best, "best-speedup-x")
}

func BenchmarkFig9aPathEnumNodes(b *testing.B) {
	var last []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9a(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	dnf := 0
	for _, p := range last {
		if p.DNF {
			dnf++
		}
	}
	b.ReportMetric(float64(dnf), "dnf-points")
}

func BenchmarkFig9bPathEnumEdges(b *testing.B) {
	var last []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9b(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	dnf := 0
	for _, p := range last {
		if p.DNF {
			dnf++
		}
	}
	b.ReportMetric(float64(dnf), "dnf-points")
}

// ---- ablation benches (design choices in DESIGN.md) ----

func BenchmarkAblationPhases(b *testing.B) {
	benchAblation(b, "two-phase only")
}

func BenchmarkAblationTermination(b *testing.B) {
	benchAblation(b, "no early termination")
}

func BenchmarkAblationContraction(b *testing.B) {
	benchAblation(b, "naive contraction")
}

func BenchmarkAblationSolvers(b *testing.B) {
	benchAblation(b, "CBE worklist")
}

func benchAblation(b *testing.B, variant string) {
	b.Helper()
	var last []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	var base, v time.Duration
	for _, r := range last {
		switch r.Variant {
		case "parallel (default)":
			base = r.Elapsed
		case variant:
			v = r.Elapsed
		}
	}
	if base > 0 && v > 0 {
		b.ReportMetric(float64(v)/float64(base), "slowdown-vs-default-x")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
