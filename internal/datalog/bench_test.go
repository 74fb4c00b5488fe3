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

// BenchmarkDatalogGlobalFixpointQuery times one control(s,t)? answer as
// datalog.Controls gives it: the engine built over the bound graph, the
// program compiled, and the bottom-up fixpoint run from the query's source.
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

// BenchmarkDatalogRun times the fixpoint alone: each iteration builds the
// engine with NewProgram outside the timer, then runs it.
func BenchmarkDatalogRun(b *testing.B) {
	g, pairs := benchGraph(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := NewProgram(g, ProgramText(), pairs[i%len(pairs)].s)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.Run()
	}
}

// BenchmarkDatalogChain times control(0, n-1)? on a 2 000-company chain of
// 0.6 stakes: 2 000 rounds, each joining the one control tuple the round
// before derived.
func BenchmarkDatalogChain(b *testing.B) {
	const n = 2000
	g := graph.New(n)
	for v := graph.NodeID(1); v < n; v++ {
		if err := g.AddEdge(v-1, v, 0.6); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, err := Controls(g, 0, n-1); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
