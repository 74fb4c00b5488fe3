package control

import (
	"context"
	"math/rand"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// mustReduce runs ParallelReduction with a background context and fails the
// test on an (impossible there) context error. Shared by the package's tests.
func mustReduce(t *testing.T, g *graph.Graph, q Query, x graph.NodeSet, opt Options) Result {
	t.Helper()
	res, err := ParallelReduction(context.Background(), g, q, x, opt)
	if err != nil {
		t.Fatalf("ParallelReduction(%v): unexpected error %v", q, err)
	}
	return res
}

// requireSameReduction runs the reducer under both re-mark policies — the
// touched frontier and Options.FullRescan — on clones of g and requires
// identical answers, statistics, round counts and reduced graphs
// (node-exact, edge-exact, label-bit-exact). Because both policies share the
// reducer's code, it then holds the frontier run to oracles that do not (see
// requireSound).
func requireSameReduction(t *testing.T, seed int64, g *graph.Graph, q Query, x graph.NodeSet, opt Options) {
	t.Helper()
	gFrontier, gFull := g.Clone(), g.Clone()
	optFull := opt
	optFull.FullRescan = true
	rf := mustReduce(t, gFrontier, q, x, opt)
	rr := mustReduce(t, gFull, q, x, optFull)
	if rf.Ans != rr.Ans {
		t.Fatalf("seed %d %v opts %+v: frontier answered %v, full rescan %v", seed, q, opt, rf.Ans, rr.Ans)
	}
	if rf.Stats != rr.Stats {
		t.Fatalf("seed %d %v opts %+v: stats %+v vs %+v", seed, q, opt, rf.Stats, rr.Stats)
	}
	if rf.Phase1Rounds != rr.Phase1Rounds || rf.Phase2Rounds != rr.Phase2Rounds {
		t.Fatalf("seed %d %v opts %+v: rounds (%d,%d) vs (%d,%d)", seed, q, opt,
			rf.Phase1Rounds, rf.Phase2Rounds, rr.Phase1Rounds, rr.Phase2Rounds)
	}
	if gFrontier.NumNodes() != gFull.NumNodes() || gFrontier.NumEdges() != gFull.NumEdges() {
		t.Fatalf("seed %d %v opts %+v: reduced to %v vs %v", seed, q, opt, gFrontier, gFull)
	}
	for v := graph.NodeID(0); int(v) < gFrontier.Cap(); v++ {
		if gFrontier.Alive(v) != gFull.Alive(v) {
			t.Fatalf("seed %d %v opts %+v: node %d survival differs", seed, q, opt, v)
		}
		if !gFrontier.Alive(v) {
			continue
		}
		if gFrontier.OutDegree(v) != gFull.OutDegree(v) {
			t.Fatalf("seed %d %v opts %+v: node %d out-degree differs", seed, q, opt, v)
		}
		gFrontier.EachOut(v, func(u graph.NodeID, w float64) {
			if fw, ok := gFull.Label(v, u); !ok || fw != w {
				t.Fatalf("seed %d %v opts %+v: edge (%d,%d) label %g vs %g (exists=%v)",
					seed, q, opt, v, u, w, fw, ok)
			}
		})
	}
	requireSound(t, seed, g, gFrontier, q, x, opt, rf.Ans)
}

// requireSound checks one reduction of orig against oracles that share no
// code with the reducer: a decided answer equals CBE on orig — and under
// FullTrust (only ever paired with X = {s, t}) the answer must be decided —
// and CBE on the
// reduced graph equals CBE on orig for every ordered pair of X.
func requireSound(t *testing.T, seed int64, orig, reduced *graph.Graph, q Query, x graph.NodeSet, opt Options, ans Answer) {
	t.Helper()
	want := CBE(orig, q)
	if ans == Unknown && opt.Trust == FullTrust {
		t.Fatalf("seed %d %v opts %+v: centralized reduction left the query undecided", seed, q, opt)
	}
	if ans != Unknown && ans.Bool() != want {
		t.Fatalf("seed %d %v opts %+v: answered %v, CBE says %v", seed, q, opt, ans, want)
	}
	for a := range x {
		for b := range x {
			if a == b {
				continue
			}
			p := Query{S: a, T: b}
			if got, want := CBE(reduced, p), CBE(orig, p); got != want {
				t.Fatalf("seed %d %v opts %+v: CBE %v on the reduced graph %v, on the original %v",
					seed, q, opt, p, got, want)
			}
		}
	}
}

// requireExhausted runs the reduction to exhaustion — no early termination,
// phases looping until no rule applies — and requires a plain ClassOf scan
// of the result to find no live non-excluded C1/C2/C3 node.
func requireExhausted(t *testing.T, seed int64, g *graph.Graph, q Query, x graph.NodeSet, opt Options) {
	t.Helper()
	opt.DisableTermination, opt.TwoPhaseOnly = true, false
	reduced := g.Clone()
	res := mustReduce(t, reduced, q, x, opt)
	reduced.EachNode(func(v graph.NodeID) {
		switch c := reduced.ClassOf(v, x.Has(v)); c {
		case graph.C1, graph.C2, graph.C3:
			t.Fatalf("seed %d %v opts %+v: exhausted reduction left node %d in %v", seed, q, opt, v, c)
		}
	})
	requireSound(t, seed, g, reduced, q, x, opt, res.Ans)
}

// TestFrontierMatchesFullRescan is the equivalence property test of the
// reducer: across ~1k random graphs — scale-free and uniform, with plain
// {s,t} exclusion sets and with boundary-node exclusion sets plus partial
// termination trust, under every option variant — the frontier and
// full-rescan re-mark policies must agree on the answer, the statistics and
// the reduced graph, and every seed is checked against CBE and for
// exhaustion.
func TestFrontierMatchesFullRescan(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 120
	}
	variants := []Options{
		{Workers: 1},
		{Workers: 4},
		{TwoPhaseOnly: true},
		{DisableTermination: true},
		{NaiveContraction: true},
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(40)
		var g *graph.Graph
		if seed%2 == 0 {
			g = gen.ScaleFree(gen.ScaleFreeConfig{Nodes: n, AvgOutDegree: 1 + rng.Float64()*2, Seed: seed})
		} else {
			g = gen.Random(n, n+rng.Intn(2*n), seed)
		}
		q := Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
		x := graph.NewNodeSet(q.S, q.T)
		opt := variants[seed%int64(len(variants))]
		opt.Trust = FullTrust
		requireSameReduction(t, seed, g, q, x, opt)
		requireExhausted(t, seed, g, q, x, opt)

		// Same graph with a boundary-style exclusion set: extra protected
		// nodes and only partially trusted termination, as in a partial
		// per-partition evaluation.
		xb := graph.NewNodeSet(q.S, q.T)
		for i := 0; i < 3; i++ {
			xb.Add(graph.NodeID(rng.Intn(n)))
		}
		optb := opt
		optb.Trust = TerminationTrust{T1: rng.Intn(2) == 0, T2: false}
		requireSameReduction(t, seed, g, q, xb, optb)
		requireExhausted(t, seed, g, q, xb, optb)
	}
}

// TestReducerReuseAcrossQueries checks that one Reducer instance can serve
// many queries over graphs of different capacities and still match a fresh
// Reducer running the full-rescan policy — guarding the buffer-reset logic
// that zero-allocation reuse depends on.
func TestReducerReuseAcrossQueries(t *testing.T) {
	r := NewReducer()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		n := 8 + rng.Intn(60)
		g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: n, AvgOutDegree: 2, Seed: seed})
		q := Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
		x := graph.NewNodeSet(q.S, q.T)
		opt := Options{Trust: FullTrust, Workers: 1 + int(seed%3)}
		gr, gf := g.Clone(), g.Clone()
		optFull := opt
		optFull.FullRescan = true
		res, err := r.Reduce(context.Background(), gr, q, x, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := NewReducer().Reduce(context.Background(), gf, q, x, optFull)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Ans != ref.Ans || res.Stats != ref.Stats ||
			gr.NumNodes() != gf.NumNodes() || gr.NumEdges() != gf.NumEdges() {
			t.Fatalf("seed %d: reused reducer diverged: %+v vs %+v (%v vs %v)",
				seed, res, ref, gr, gf)
		}
	}
}

// TestInlineReduceAllocs pins the inline path — a reused Reducer with one
// worker and no Meter, the configuration every benchmark site runs — on the
// 3000-round R3 cascade of BenchmarkReductionRounds: a whole Reduce,
// every round included, allocates nothing.
func TestInlineReduceAllocs(t *testing.T) {
	const k = 3000
	g := deepChain(t, k)
	q := Query{S: 0, T: graph.NodeID(k + 1)}
	x := graph.NewNodeSet(q.S, q.T)
	opt := Options{Workers: 1, DisableTermination: true}
	const runs = 20
	clones := make([]*graph.Graph, runs+1) // AllocsPerRun adds a warm-up run
	for i := range clones {
		clones[i] = g.Clone()
	}
	r := NewReducer()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := r.Reduce(context.Background(), clones[next], q, x, opt)
		next++
		if err != nil || res.Phase2Rounds < k {
			t.Fatalf("cascade: %d rounds, err %v", res.Phase2Rounds, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("inline Reduce of the %d-round cascade allocates %v times, want 0", k, allocs)
	}
}
