package control

import (
	"context"
	"sync"

	"ccp/internal/graph"
	"ccp/internal/obs"
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

	// FullRescan disables the frontier engine and re-marks all nodes every
	// round, re-tallying classes with a full scan — the literal procedure of
	// Section VI (ablation abl-frontier). Answers, reduced graphs and
	// statistics are identical either way; only the per-round cost differs.
	FullRescan bool

	// Meter, when non-nil, records the critical path of every parallel
	// step, letting par.Meter.SimulatedElapsed estimate the wall clock of
	// the same run on a machine with one core per worker.
	Meter *par.Meter

	// Obs, when non-nil, streams reduction telemetry — rounds, nodes
	// removed by R1/R2, nodes contracted by R3, frontier widths — into an
	// obs metrics registry. Nil costs one pointer check per round.
	Obs *obs.ReducerObs
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
// are re-classified (see Reducer). Set opt.FullRescan for the literal
// mark-everything procedure. This wrapper borrows a pooled Reducer; callers
// with a natural place to keep one (e.g. dist.Site) can hold their own and
// call Reduce directly.
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

// fullRescanReduction is the pre-frontier engine, kept verbatim as the
// abl-frontier ablation baseline: every round re-marks all of the id space
// and re-tallies classes with a full parallel scan.
func fullRescanReduction(ctx context.Context, g *graph.Graph, q Query, x graph.NodeSet, opt Options) (Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	res := Result{Ans: Unknown, Reduced: g}

	check := func() bool {
		if opt.DisableTermination {
			return false
		}
		if a := CheckTermination(g, q, opt.Trust); a != Unknown {
			res.Ans = a
			return true
		}
		return false
	}
	if check() {
		return res, nil
	}

	n := g.Cap()
	labels := make([]graph.Class, n)
	excluded := make([]bool, n)
	for v := range x {
		if int(v) < n {
			excluded[v] = true
		}
	}
	mark := func() {
		par.MeteredFor(opt.Meter, n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := graph.NodeID(i)
				if !g.Alive(v) {
					labels[i] = graph.C1
					continue
				}
				labels[i] = g.ClassOf(v, excluded[i])
			}
		})
	}
	// countClasses tallies live nodes per class in parallel.
	countClasses := func() (c12, c3 int) {
		type tally struct{ c12, c3 int }
		parts := make([]tally, par.Blocks(n, workers))
		par.MeteredForBlocks(opt.Meter, n, workers, func(b, lo, hi int) {
			var t tally
			for i := lo; i < hi; i++ {
				if !g.Alive(graph.NodeID(i)) {
					continue
				}
				switch labels[i] {
				case graph.C1, graph.C2:
					t.c12++
				case graph.C3:
					t.c3++
				}
			}
			parts[b] = t
		})
		for _, t := range parts {
			c12 += t.c12
			c3 += t.c3
		}
		return c12, c3
	}

	phase := 1
	dead := make([]bool, n)
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		mark()
		if check() {
			return res, nil
		}
		c12, c3 := countClasses()

		if phase == 1 {
			if c12 == 0 {
				phase = 2
			} else {
				// clean: remove all C1/C2 nodes in parallel.
				par.MeteredFor(opt.Meter, n, workers, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						dead[i] = g.Alive(graph.NodeID(i)) &&
							(labels[i] == graph.C1 || labels[i] == graph.C2)
					}
				})
				removed := g.ParallelRemoveMetered(opt.Meter, dead, workers)
				if opt.Obs != nil {
					r1 := 0
					for i, d := range dead {
						if d && labels[i] == graph.C1 {
							r1++
						}
					}
					opt.Obs.RemoveRound(r1, removed-r1, c12)
				}
				res.Stats.Removed += removed
				res.Stats.Iterations++
				res.Phase1Rounds++
				continue
			}
		}

		// Phase 2.
		if c3 == 0 {
			if !opt.TwoPhaseOnly && c12 > 0 {
				phase = 1
				continue
			}
			break
		}
		rep := resolveRepresentatives(g, labels, opt.NaiveContraction)
		contracted := g.ParallelContractMetered(opt.Meter, rep, workers)
		opt.Obs.ContractRound(contracted, c3)
		res.Stats.Contracted += contracted
		res.Stats.Iterations++
		res.Phase2Rounds++
	}

	// Reduction is exhausted; the termination conditions now decide the
	// query whenever the exclusion set is just {s, t} (see Section VI: after
	// Phase 2, T1 ∨ T3 always fires in the centralized setting).
	res.Ans = CheckTermination(g, q, opt.Trust)
	return res, nil
}

// resolveRepresentatives computes, for every C3 node, the node that will
// absorb its outgoing edges under exhaustive application of R3:
// the first non-C3 node reached by following direct controllers, or — for
// chains ending in a cycle made entirely of C3 nodes — the minimum-id member
// of that cycle, which survives the round (rep[v] == v) exactly as it would
// survive sequential application of R3 to every other cycle member.
//
// If naive is set, only C3 nodes whose direct controller is not itself C3
// are contracted (one chain layer per round).
func resolveRepresentatives(g *graph.Graph, labels []graph.Class, naive bool) []graph.NodeID {
	n := g.Cap()
	rep := make([]graph.NodeID, n)
	for i := range rep {
		rep[i] = graph.None
	}
	if naive {
		for i := 0; i < n; i++ {
			v := graph.NodeID(i)
			if labels[i] != graph.C3 || !g.Alive(v) {
				continue
			}
			wdc := g.DirectController(v)
			if wdc != graph.None && labels[wdc] != graph.C3 {
				rep[i] = wdc
			}
		}
		ensureProgress(g, labels, rep)
		return rep
	}

	const (
		unvisited = 0
		inWalk    = 1
		done      = 2
	)
	state := make([]uint8, n)
	var walk []graph.NodeID
	for i := 0; i < n; i++ {
		if labels[i] != graph.C3 || state[i] != unvisited || !g.Alive(graph.NodeID(i)) {
			continue
		}
		walk = walk[:0]
		u := graph.NodeID(i)
		var root graph.NodeID
		for {
			if labels[u] != graph.C3 {
				root = u
				break
			}
			if state[u] == done {
				root = rep[u]
				break
			}
			if state[u] == inWalk {
				// u closes a cycle of directly-controlled nodes; collapse it
				// onto its minimum-id member.
				k := 0
				for walk[k] != u {
					k++
				}
				root = u
				for _, c := range walk[k:] {
					if c < root {
						root = c
					}
				}
				break
			}
			state[u] = inWalk
			walk = append(walk, u)
			u = g.DirectController(u)
		}
		for _, w := range walk {
			state[w] = done
			rep[w] = root
		}
		if int(root) < n && labels[root] == graph.C3 {
			// root is the surviving member of a C3 cycle.
			rep[root] = root
			state[root] = done
		}
	}
	return rep
}

// ensureProgress guarantees that a naive-contraction round contracts at
// least one node even when every C3 node's controller is C3 (i.e. the C3
// nodes form only cycles): it contracts one non-minimal member of one cycle,
// mirroring a single sequential R3 application.
func ensureProgress(g *graph.Graph, labels []graph.Class, rep []graph.NodeID) {
	for i := range rep {
		if rep[i] != graph.None && rep[i] != graph.NodeID(i) {
			return // some contraction already scheduled
		}
	}
	for i := range labels {
		v := graph.NodeID(i)
		if labels[i] != graph.C3 || !g.Alive(v) {
			continue
		}
		wdc := g.DirectController(v)
		if wdc == graph.None {
			continue
		}
		// Contract v into wdc; wdc survives this round because nothing else
		// is scheduled.
		rep[i] = wdc
		if int(wdc) < len(rep) {
			rep[wdc] = graph.None
		}
		return
	}
}
