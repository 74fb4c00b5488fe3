package control

import (
	"context"
	"sync"

	"ccp/internal/graph"
	"ccp/internal/par"
)

// Options configures ParallelReduction.
type Options struct {
	// Workers is the intra-site parallelism degree; <= 0 means GOMAXPROCS.
	Workers int

	// Trust gates the early-termination conditions (see TerminationTrust).
	Trust TerminationTrust

	// TwoPhaseOnly reproduces the paper's procedure literally: Phase 1
	// (R1/R2) runs to exhaustion, then Phase 2 (R3) runs to exhaustion, and
	// the algorithm stops — even if contraction re-created C1/C2 nodes.
	// The default (false) loops back to Phase 1 until no rule applies,
	// which yields the smallest control-equivalent graph.
	TwoPhaseOnly bool

	// DisableTermination skips the T1–T3 early-exit checks (ablation
	// abl-term). The final answer is still derived after full reduction.
	DisableTermination bool

	// NaiveContraction contracts only C3 nodes whose direct controller is
	// not itself C3, one layer per round, instead of resolving controller
	// chains and cycles to representatives (ablation abl-repr).
	NaiveContraction bool

	// FullRescan re-marks every node after every mutation round, rebuilding
	// the class tallies and candidate lists from scratch, instead of only the
	// touched frontier — the literal mark step of Section VI (ablation
	// abl-frontier). Answers, reduced graphs and statistics are identical
	// either way; only the per-round marking cost differs.
	FullRescan bool

	// Meter, when non-nil, records the critical path of every parallel
	// step, letting par.Meter.SimulatedElapsed estimate the wall clock of
	// the same run on a machine with one core per worker.
	Meter *par.Meter
}

// Result is the outcome of ParallelReduction: the answer to q_c(s, t) if the
// reduction could decide it (Unknown otherwise, possible only when the
// exclusion set contains boundary nodes), the reduced graph, and statistics.
type Result struct {
	Ans          Answer
	Reduced      *graph.Graph
	Stats        Stats
	Phase1Rounds int
	Phase2Rounds int
}

// Stats counts the work done by a reduction.
type Stats struct {
	Iterations int // mark/act rounds
	Removed    int // nodes removed by R1/R2
	Contracted int // nodes contracted by R3
}

// Add accumulates other into st.
func (st *Stats) Add(other Stats) {
	st.Iterations += other.Iterations
	st.Removed += other.Removed
	st.Contracted += other.Contracted
}

// reducerPool recycles Reducers across ParallelReduction calls so the
// convenience entry point shares the zero-steady-state-allocation property
// of an explicitly reused Reducer.
var reducerPool = sync.Pool{New: func() any { return NewReducer() }}

// ParallelReduction is the procedure parallelReduction of Section VI: it
// reduces g in place with respect to query q, never removing nodes of the
// exclusion set x, using parallel mark / clean / simplify steps.
//
// Phase 1 repeatedly marks and removes every C1/C2 node in parallel. Phase 2
// repeatedly marks and contracts all C3 nodes in parallel: every
// directly-controlled node is resolved — following chains of direct
// controllers, collapsing pure C3 cycles onto their minimum-id member — to
// the representative that ends up owning its outgoing edges, and all
// transfers are executed by id-sharded workers.
//
// Marking after round 1 is incremental: only nodes whose adjacency changed
// are re-classified (see Reducer). Set opt.FullRescan to re-mark everything
// every round. This wrapper borrows a pooled Reducer; callers with a natural
// place to keep one (e.g. dist.Site) can hold their own and call Reduce
// directly.
//
// ctx is checked between reduction rounds: a cancelled or expired context
// stops the reduction promptly and returns ctx.Err() (the graph is left
// partially reduced, the pooled Reducer stays reusable). The returned error
// is nil whenever the reduction ran to its natural end.
func ParallelReduction(ctx context.Context, g *graph.Graph, q Query, x graph.NodeSet, opt Options) (Result, error) {
	r := reducerPool.Get().(*Reducer)
	res, err := r.Reduce(ctx, g, q, x, opt)
	reducerPool.Put(r)
	return res, err
}
