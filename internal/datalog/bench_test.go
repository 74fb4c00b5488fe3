package datalog

import (
	"math/rand"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// benchGraph is the shared benchmark workload: a scale-free ownership graph
// with a deterministic set of query pairs, some controlling and some not.
func benchGraph(n int) (*graph.Graph, []control2) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: n, Seed: 42})
	rng := rand.New(rand.NewSource(7))
	pairs := make([]control2, 0, 16)
	for len(pairs) < 16 {
		s := graph.NodeID(rng.Intn(n))
		t := graph.NodeID(rng.Intn(n))
		if s == t {
			continue
		}
		pairs = append(pairs, control2{s, t})
	}
	return g, pairs
}

type control2 struct{ s, t graph.NodeID }

// BenchmarkDatalogGlobalFixpointQuery is the baseline the goal-directed
// path is compared against: each control(s,t)? answer rebuilds the engine
// and runs the bottom-up global fixpoint — what datalog.Controls does.
func BenchmarkDatalogGlobalFixpointQuery(b *testing.B) {
	g, pairs := benchGraph(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := Controls(g, p.s, p.t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalogPlannedRepeatedQuery is the plan-cache hit path: one
// solver, facts loaded once, repeated goal-directed queries sharing the
// compiled plan and pooled evaluator state.
func BenchmarkDatalogPlannedRepeatedQuery(b *testing.B) {
	g, pairs := benchGraph(300)
	solver, err := NewCCPSolver(g)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the plan cache so the loop measures steady state.
	if _, err := solver.Controls(pairs[0].s, pairs[0].t); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := solver.Controls(p.s, p.t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalogRun measures the bottom-up global fixpoint of the
// all-sources control program, engine build included.
func BenchmarkDatalogRun(b *testing.B) {
	g, _ := benchGraph(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver, err := NewCCPSolver(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := solver.Engine().Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatalogControlledSet measures the goal-directed full-row query
// control(s, z)? against rebuilding the per-source program.
func BenchmarkDatalogControlledSet(b *testing.B) {
	g, pairs := benchGraph(300)
	solver, err := NewCCPSolver(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.ControlledSet(pairs[i%len(pairs)].s); err != nil {
			b.Fatal(err)
		}
	}
}
