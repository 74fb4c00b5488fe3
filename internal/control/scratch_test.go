package control

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// hubGraph builds s = 0 owning 20% of every company 2..n+1, each of which
// owns 0.1% of t = 1: every company in between is C2, so one removal round
// retires it and the reduction stops.
func hubGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n + 2)
	for i := 2; i < n+2; i++ {
		if err := g.AddEdge(0, graph.NodeID(i), 0.2); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(graph.NodeID(i), 1, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestScratchCycleZeroAlloc pins the cycle a live site evaluation runs —
// clone the partition into pooled scratch, reduce the copy, clone into the
// same scratch again — at zero allocations per run once warm, on both forms
// of a removal round: the mass scan (victims are most live nodes) and the
// per-victim emit path (victims are fewer than half of them, because the
// exclusion set protects the rest).
func TestScratchCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins do not hold under -race")
	}
	const n = 2000
	g := hubGraph(t, n)
	q := Query{S: 0, T: 1}
	mass := graph.NewNodeSet(q.S, q.T)
	emit := graph.NewNodeSet(q.S, q.T)
	for i := 2; i < n+2-n/10; i++ {
		emit.Add(graph.NodeID(i))
	}
	for _, tc := range []struct {
		name    string
		x       graph.NodeSet
		removed func(int) bool
	}{
		{"mass", mass, func(r int) bool { return r == n }},
		{"emit", emit, func(r int) bool { return r == n/10 && 2*r < n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReducer()
			opt := Options{Workers: 1, DisableTermination: true}
			dst := g.CloneInto(graph.New(0))
			cycle := func() {
				dst = g.CloneInto(dst)
				res, err := r.Reduce(context.Background(), dst, q, tc.x, opt)
				if err != nil || !tc.removed(res.Stats.Removed) || res.Phase1Rounds != 1 {
					t.Fatalf("reduction removed %d in %d rounds, err %v", res.Stats.Removed, res.Phase1Rounds, err)
				}
			}
			cycle()
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Fatalf("clone → reduce → clone allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestReusedScratchMatchesFreshClone reduces, over 1 000 seeds, a scratch
// graph that earlier reductions of other queries (on other graphs) left
// behind, and requires the same reduced graph and the same statistics as
// reducing a fresh Clone. Workers: 0 takes the inline mutator mode at
// GOMAXPROCS=1 and the sharded one otherwise, so a -cpu 1,4 run covers both
// kill paths; Workers: 1 and 4 pin each mode whatever the runner.
func TestReusedScratchMatchesFreshClone(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 120
	}
	scratch := graph.New(0)
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(60)
		var g *graph.Graph
		if seed%2 == 0 {
			g = gen.ScaleFree(gen.ScaleFreeConfig{Nodes: n, AvgOutDegree: 1 + rng.Float64()*2, Seed: seed})
		} else {
			g = gen.Random(n, n+rng.Intn(2*n), seed)
		}
		opt := Options{Workers: []int{0, 1, 4}[seed%3], Trust: FullTrust}
		pick := func() (Query, graph.NodeSet) {
			q := Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
			x := graph.NewNodeSet(q.S, q.T)
			for i := rng.Intn(4); i > 0; i-- {
				x.Add(graph.NodeID(rng.Intn(n)))
			}
			return q, x
		}
		// Other queries first, so the scratch carries their leftovers.
		for i := 0; i < 2; i++ {
			q, x := pick()
			scratch = g.CloneInto(scratch)
			mustReduce(t, scratch, q, x, opt)
		}
		q, x := pick()
		scratch = g.CloneInto(scratch)
		got := mustReduce(t, scratch, q, x, opt)
		fresh := g.Clone()
		want := mustReduce(t, fresh, q, x, opt)
		if got.Ans != want.Ans || got.Stats != want.Stats ||
			got.Phase1Rounds != want.Phase1Rounds || got.Phase2Rounds != want.Phase2Rounds {
			t.Fatalf("seed %d %v: reused scratch %+v, fresh clone %+v", seed, q, got, want)
		}
		if !graph.Equal(scratch, fresh, 0) {
			t.Fatalf("seed %d %v: reused scratch reduced to %v, fresh clone to %v", seed, q, scratch, fresh)
		}
	}
}

// requireCleanScratch fails unless every per-slot buffer of r is clean over
// its whole capacity: no exclusion, victim or seen flag set, no walk state,
// no representative.
func requireCleanScratch(t *testing.T, tag string, r *Reducer) {
	t.Helper()
	for i, b := range r.excluded[:cap(r.excluded)] {
		if b {
			t.Fatalf("%s: excluded[%d] left set", tag, i)
		}
	}
	for i, b := range r.isVictim[:cap(r.isVictim)] {
		if b {
			t.Fatalf("%s: isVictim[%d] left set", tag, i)
		}
	}
	for i, b := range r.seen[:cap(r.seen)] {
		if b {
			t.Fatalf("%s: seen[%d] left set", tag, i)
		}
	}
	for i, s := range r.state[:cap(r.state)] {
		if s != 0 {
			t.Fatalf("%s: state[%d] left %d", tag, i, s)
		}
	}
	for i, v := range r.rep[:cap(r.rep)] {
		if v != graph.None {
			t.Fatalf("%s: rep[%d] left %d", tag, i, v)
		}
	}
}

// TestReusedReducerMatchesFresh runs one Reducer through a seeded sequence
// of calls whose graphs' Cap grows and shrinks from call to call, some with
// most of their ids dead, under random exclusion sets (ids outside the graph
// among them) and every option that changes the rounds. Some calls exit at
// round 0, some are cancelled after a few rounds. After each call the
// Reducer's scratch must be clean over its whole capacity, and the call's
// answer, error, stats and reduced graph (graph.Equal at tolerance 0) must
// equal those of a fresh Reducer given the same graph, query and context.
func TestReusedReducerMatchesFresh(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 150
	}
	r := NewReducer()
	cancelled, decided := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(60)
		if rng.Intn(3) == 0 {
			n = 200 + rng.Intn(400)
		}
		var g *graph.Graph
		if seed%2 == 0 {
			g = gen.ScaleFree(gen.ScaleFreeConfig{Nodes: n, AvgOutDegree: 1 + rng.Float64()*2, Seed: seed})
		} else {
			g = gen.Random(n, n+rng.Intn(2*n), seed)
		}
		if rng.Intn(3) == 0 {
			// A sparse id space, as a site's slice of its partition is.
			for v := 0; v < n; v++ {
				if rng.Intn(4) != 0 {
					g.RemoveNode(graph.NodeID(v))
				}
			}
		}
		opt := Options{
			Workers:            []int{0, 1, 4}[seed%3],
			Trust:              FullTrust,
			FullRescan:         rng.Intn(4) == 0,
			NaiveContraction:   rng.Intn(4) == 0,
			TwoPhaseOnly:       rng.Intn(6) == 0,
			DisableTermination: rng.Intn(3) == 0,
		}
		q := Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
		kind := "full"
		switch rng.Intn(4) {
		case 0:
			// Round 0 decides: a company controls itself.
			q.T = q.S
			opt.DisableTermination = false
			kind = "round 0"
		case 1:
			// Cancelled after a few rounds, before termination can end it.
			opt.DisableTermination = true
			kind = "cancelled"
		}
		x := graph.NewNodeSet(q.S, q.T, graph.NodeID(n+rng.Intn(8)), graph.NodeID(-1-rng.Intn(3)))
		for i := rng.Intn(6); i > 0; i-- {
			x.Add(graph.NodeID(rng.Intn(n)))
		}
		rounds := 1 + 1000
		if kind == "cancelled" {
			rounds = 1 + rng.Intn(3)
		}
		tag := fmt.Sprintf("seed %d (%s, Cap %d, %d live, %+v) %v", seed, kind, g.Cap(), g.NumNodes(), opt, q)

		reused := g.Clone()
		got, gotErr := r.Reduce(newCountdownCtx(int64(rounds)), reused, q, x, opt)
		requireCleanScratch(t, tag, r)
		fresh := g.Clone()
		want, wantErr := NewReducer().Reduce(newCountdownCtx(int64(rounds)), fresh, q, x, opt)
		if (gotErr == nil) != (wantErr == nil) || got.Ans != want.Ans || got.Stats != want.Stats ||
			got.Phase1Rounds != want.Phase1Rounds || got.Phase2Rounds != want.Phase2Rounds {
			t.Fatalf("%s: reused Reducer %+v (err %v), fresh %+v (err %v)", tag, got, gotErr, want, wantErr)
		}
		if !graph.Equal(reused, fresh, 0) {
			t.Fatalf("%s: reused Reducer reduced to %v, fresh to %v", tag, reused, fresh)
		}
		if gotErr != nil {
			cancelled++
		}
		if kind == "round 0" && got.Stats.Iterations == 0 {
			decided++
		}
	}
	if cancelled < seeds/8 || decided < seeds/8 {
		t.Fatalf("%d calls cancelled and %d decided at round 0 of %d: the sequence misses its cases", cancelled, decided, seeds)
	}
}
