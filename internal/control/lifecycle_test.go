package control

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ccp/internal/graph"
)

// deepChain builds the R3 cascade gadget of BenchmarkReductionRounds: a root
// owning 60% of c_1 and 30% of every b_j, with c_{j-1} owning the other 30%
// of b_j. Each contraction round creates exactly one new directly-controlled
// node, so the reduction runs k rounds that each touch O(1) nodes — ideal for
// exercising the per-round cancellation checks deterministically.
func deepChain(t testing.TB, k int) *graph.Graph {
	t.Helper()
	g := graph.New(k + 2)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddEdge(0, 1, 0.6))
	for j := 2; j <= k; j++ {
		must(g.AddEdge(0, graph.NodeID(j), 0.3))
		must(g.AddEdge(graph.NodeID(j-1), graph.NodeID(j), 0.3))
	}
	must(g.AddEdge(graph.NodeID(k), graph.NodeID(k+1), 0.3))
	return g
}

// countdownCtx is a context.Context whose Err flips to context.Canceled after
// its Err method has been consulted n times — a deterministic stand-in for a
// caller that cancels mid-reduction, independent of wall-clock timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestReduceCancelledMidReduction(t *testing.T) {
	const k = 400
	g := deepChain(t, k)
	q := Query{S: 0, T: graph.NodeID(k + 1)}
	x := graph.NewNodeSet(q.S, q.T)
	opt := Options{Workers: 2, DisableTermination: true}

	r := NewReducer()

	// Cancel after a handful of rounds: the reduction must stop early with
	// context.Canceled instead of running all k contraction rounds.
	ctx := newCountdownCtx(10)
	res, err := r.Reduce(ctx, g.Clone(), q, x, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-reduction cancel: err = %v, want context.Canceled", err)
	}
	if res.Ans != Unknown {
		t.Fatalf("cancelled reduction decided the query: %v", res.Ans)
	}
	if res.Stats.Iterations >= k {
		t.Fatalf("cancelled reduction still ran %d rounds (of %d)", res.Stats.Iterations, k)
	}

	// The same Reducer must be fully reusable for the next query.
	full, err := r.Reduce(context.Background(), g.Clone(), q, x, opt)
	if err != nil {
		t.Fatalf("reduce after cancel: %v", err)
	}
	if full.Phase2Rounds < k {
		t.Fatalf("reused reducer collapsed the cascade in %d rounds, want %d", full.Phase2Rounds, k)
	}

	// Same contract under the full-rescan re-mark policy.
	optFull := opt
	optFull.FullRescan = true
	if _, err := r.Reduce(newCountdownCtx(5), g.Clone(), q, x, optFull); !errors.Is(err, context.Canceled) {
		t.Fatalf("full-rescan cancel: err = %v, want context.Canceled", err)
	}
	if res, err := r.Reduce(context.Background(), g.Clone(), q, x, optFull); err != nil || res.Phase2Rounds < k {
		t.Fatalf("full-rescan after cancel: rounds=%d err=%v", res.Phase2Rounds, err)
	}
}

func TestReduceAlreadyCancelledContext(t *testing.T) {
	g := deepChain(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ParallelReduction(ctx, g, Query{S: 0, T: 51}, graph.NewNodeSet(0, 51),
		Options{DisableTermination: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.Iterations != 0 {
		t.Fatalf("pre-cancelled context still ran %d rounds", res.Stats.Iterations)
	}
}

func TestReduceDeadlinePropagates(t *testing.T) {
	g := deepChain(t, 50)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := ParallelReduction(ctx, g, Query{S: 0, T: 51}, graph.NewNodeSet(0, 51),
		Options{DisableTermination: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
