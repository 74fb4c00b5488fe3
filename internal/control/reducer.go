package control

import (
	"context"
	"slices"

	"ccp/internal/graph"
	"ccp/internal/par"
)

// parallelRemarkMin is the frontier size above which re-marking runs as a
// metered parallel step; smaller frontiers are classified serially (each
// classification is an O(1) aggregate lookup).
const parallelRemarkMin = 2048

// Reducer runs the reduction engine of Section VI and owns every scratch
// buffer it needs — labels, candidate lists, dirty sets,
// representative and walk state — so that repeated reductions (the per-query
// path of dist.Site, ControlledSet bulk loops, benchmark harnesses) run with
// near-zero steady-state allocations. A Reducer may be reused for any number
// of sequential Reduce calls but is not safe for concurrent use; pool
// Reducers to share them across goroutines.
//
// Round 1 classifies the live nodes, and every later round re-classifies
// only the touched set returned by the batch mutators — the surviving
// neighbors of removed nodes and the targets of transferred edges — unless
// Options.FullRescan asks for a full re-mark. Both policies compute the same
// reduction: a node's class depends only on its own adjacency, and every
// adjacency change lands its owner in the touched set, so classes of
// untouched nodes cannot have changed. Class
// tallies are kept as running counters updated by transition deltas, and the
// c12/c3 candidate lists are supersets (they may hold stale or duplicate
// entries, filtered against the current labels when a round consumes them),
// maintained under the invariant that every live node currently labeled
// C1/C2 is in c12 and every live node labeled C3 is in c3.
//
// Cost model: a Reduce call costs O(live nodes + touched edges), not
// O(Cap). The per-slot scratch (exclusion, victim and seen flags, walk
// state, representatives) is clean between calls over its whole capacity:
// every round undoes the slots it marked, and a call unmarks its exclusion
// set as it returns, so a call only ever writes the slots it uses. Labels
// are written for live nodes only and read for live nodes only. The live
// nodes themselves are enumerated by graph.AppendLive, which skips dead
// stretches of the id space by a byte search.
type Reducer struct {
	labels   []graph.Class
	excluded []bool
	isVictim []bool
	rep      []graph.NodeID
	state    []uint8
	seen     []bool
	walk     []graph.NodeID
	dirty    []graph.NodeID
	nlBuf    []graph.Class
	live     []graph.NodeID
	xs       []graph.NodeID
	c12      []graph.NodeID
	c3       []graph.NodeID
	cand     []graph.NodeID
	victims  []graph.NodeID
	sc       graph.BatchScratch
	c12n     int
	c3n      int
	n        int
}

// NewReducer returns an empty Reducer; buffers grow on first use.
func NewReducer() *Reducer { return &Reducer{} }

// grow returns s with length n. A regrown backing array is filled with
// blank, so each of its slots is clean, as the slots a shorter reslice
// reveals already are.
func grow[T any](s []T, n int, blank T) []T {
	if cap(s) >= n {
		return s[:n]
	}
	s = make([]T, n)
	for i := range s {
		s[i] = blank
	}
	return s
}

// reset sizes the scratch for g and marks the exclusion set x. Every other
// slot is already clean (see Reducer).
func (r *Reducer) reset(g *graph.Graph, x graph.NodeSet) {
	n := g.Cap()
	r.n = n
	r.labels = grow(r.labels, n, 0)
	r.excluded = grow(r.excluded, n, false)
	r.isVictim = grow(r.isVictim, n, false)
	r.rep = grow(r.rep, n, graph.None)
	r.state = grow(r.state, n, 0)
	r.seen = grow(r.seen, n, false)
	xs := r.xs[:0]
	for v := range x {
		// Ids outside the graph (a query naming no company, from the wire
		// or the API) exclude nothing.
		if v >= 0 && int(v) < n && !r.excluded[v] {
			r.excluded[v] = true
			xs = append(xs, v)
		}
	}
	r.xs = xs
	r.c12, r.c3 = r.c12[:0], r.c3[:0]
	r.cand, r.victims, r.dirty = r.cand[:0], r.victims[:0], r.dirty[:0]
	r.c12n, r.c3n = 0, 0
}

// unexclude clears the exclusion marks reset set, the one per-slot scratch a
// round does not undo itself.
func (r *Reducer) unexclude() {
	for _, v := range r.xs {
		r.excluded[v] = false
	}
	r.xs = r.xs[:0]
}

// Reduce reduces g in place with respect to query q, never removing nodes of
// the exclusion set x. It is ParallelReduction on r's buffers.
//
// ctx is checked at every round boundary: once it is cancelled or past its
// deadline the reduction returns ctx.Err() promptly instead of burning cores
// on a query nobody is waiting for. The graph is left partially reduced (it
// is a per-query clone everywhere this engine runs) and r itself stays fully
// reusable: rounds stop only at their boundaries, where the scratch is clean.
func (r *Reducer) Reduce(ctx context.Context, g *graph.Graph, q Query, x graph.NodeSet, opt Options) (Result, error) {
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
	if err := ctx.Err(); err != nil {
		return res, err
	}

	r.reset(g, x)
	defer r.unexclude()
	r.markAll(g, opt.Meter, workers)
	if check() {
		return res, nil
	}

	phase := 1
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if phase == 1 {
			if r.c12n == 0 {
				phase = 2
			} else {
				victims := r.collectC12Victims(g)
				for _, v := range victims {
					r.isVictim[v] = true
				}
				removed, touched := g.RemoveBatchMetered(opt.Meter, victims, r.isVictim, workers, &r.sc)
				for _, v := range victims {
					r.isVictim[v] = false
				}
				r.c12n -= removed
				res.Stats.Removed += removed
				res.Stats.Iterations++
				res.Phase1Rounds++
				r.remark(g, opt, workers, touched)
				if check() {
					return res, nil
				}
				continue
			}
		}

		// Phase 2.
		if r.c3n == 0 {
			if !opt.TwoPhaseOnly && r.c12n > 0 {
				phase = 1
				continue
			}
			break
		}
		victims := r.resolveFrontier(g, opt.NaiveContraction)
		contracted, touched := g.ContractBatchMetered(opt.Meter, victims, r.rep, workers, &r.sc)
		r.c3n -= contracted
		res.Stats.Contracted += contracted
		res.Stats.Iterations++
		res.Phase2Rounds++
		r.remark(g, opt, workers, touched)
		r.finishContractRound(g)
		if check() {
			return res, nil
		}
	}

	res.Ans = CheckTermination(g, q, opt.Trust)
	return res, nil
}

// markAll classifies every live node (round 1) and rebuilds the candidate
// lists and tallies from scratch. A single block is classified by a direct
// call: a closure handed to par.For escapes to the heap, an allocation per
// Reduce.
func (r *Reducer) markAll(g *graph.Graph, m *par.Meter, workers int) {
	live := g.AppendLive(r.live[:0])
	r.live = live
	if m == nil && par.Blocks(len(live), workers) <= 1 {
		r.classify(g, live)
	} else {
		par.For(m, len(live), workers, func(lo, hi int) { r.classify(g, live[lo:hi]) })
	}
	labels := r.labels
	r.c12, r.c3 = r.c12[:0], r.c3[:0]
	r.c12n, r.c3n = 0, 0
	for _, v := range live {
		switch labels[v] {
		case graph.C1, graph.C2:
			r.c12n++
			r.c12 = append(r.c12, v)
		case graph.C3:
			r.c3n++
			r.c3 = append(r.c3, v)
		}
	}
}

// classify labels the listed live nodes.
func (r *Reducer) classify(g *graph.Graph, vs []graph.NodeID) {
	for _, v := range vs {
		r.labels[v] = g.ClassOf(v, r.excluded[v])
	}
}

// remark re-classifies the touched nodes of the round that just mutated the
// graph, folding label transitions into the tallies and candidate lists — or,
// under opt.FullRescan, every node via markAll.
func (r *Reducer) remark(g *graph.Graph, opt Options, workers int, touched [][]graph.NodeID) {
	if opt.FullRescan {
		r.markAll(g, opt.Meter, workers)
		return
	}
	d := r.dirty[:0]
	for _, shard := range touched {
		for _, v := range shard {
			if r.seen[v] || !g.Alive(v) {
				continue
			}
			r.seen[v] = true
			d = append(d, v)
		}
	}
	if len(d) >= parallelRemarkMin {
		nl := grow(r.nlBuf, len(d), 0)
		r.nlBuf = nl
		par.For(opt.Meter, len(d), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				nl[i] = g.ClassOf(d[i], r.excluded[d[i]])
			}
		})
		for i, v := range d {
			r.seen[v] = false
			r.applyLabel(v, nl[i])
		}
	} else {
		for _, v := range d {
			r.seen[v] = false
			r.applyLabel(v, g.ClassOf(v, r.excluded[v]))
		}
	}
	r.dirty = d[:0]
}

// applyLabel records a (possible) label transition of v in the tallies and
// candidate lists.
func (r *Reducer) applyLabel(v graph.NodeID, nl graph.Class) {
	old := r.labels[v]
	if nl == old {
		return
	}
	r.labels[v] = nl
	switch old {
	case graph.C1, graph.C2:
		r.c12n--
	case graph.C3:
		r.c3n--
	}
	switch nl {
	case graph.C1, graph.C2:
		r.c12n++
		r.c12 = append(r.c12, v)
	case graph.C3:
		r.c3n++
		r.c3 = append(r.c3, v)
	}
}

// collectC12Victims filters the c12 candidate list down to the current live
// C1/C2 nodes, deduped and sorted ascending (id order fixes the sharded
// mutation streams — and therefore merged float labels — whatever order the
// candidates were found in).
func (r *Reducer) collectC12Victims(g *graph.Graph) []graph.NodeID {
	vs := r.victims[:0]
	for _, v := range r.c12 {
		if r.seen[v] || !g.Alive(v) {
			continue
		}
		if l := r.labels[v]; l != graph.C1 && l != graph.C2 {
			continue
		}
		r.seen[v] = true
		vs = append(vs, v)
	}
	for _, v := range vs {
		r.seen[v] = false
	}
	slices.Sort(vs)
	r.c12 = r.c12[:0]
	r.victims = vs
	return vs
}

// resolveFrontier compacts the c3 candidate list into r.cand (live C3 nodes,
// deduped, ascending), resolves their representatives — restricted to the
// candidates instead of a full id-space walk; every node on a
// direct-controller chain of C3 nodes is itself C3 and therefore a candidate
// — and returns the contraction victims in ascending order.
func (r *Reducer) resolveFrontier(g *graph.Graph, naive bool) []graph.NodeID {
	cand := r.cand[:0]
	for _, v := range r.c3 {
		if r.seen[v] || !g.Alive(v) || r.labels[v] != graph.C3 {
			continue
		}
		r.seen[v] = true
		cand = append(cand, v)
	}
	for _, v := range cand {
		r.seen[v] = false
	}
	slices.Sort(cand)
	r.cand = cand
	r.c3 = r.c3[:0]

	vs := r.victims[:0]
	if naive {
		for _, v := range cand {
			wdc := g.DirectController(v)
			if wdc != graph.None && r.labels[wdc] != graph.C3 {
				r.rep[v] = wdc
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			// Every C3 node's controller is itself C3 (the C3 nodes form only
			// cycles): contract the lowest-id one with a controller, mirroring
			// a single sequential R3 application.
			for _, v := range cand {
				wdc := g.DirectController(v)
				if wdc == graph.None {
					continue
				}
				r.rep[v] = wdc
				vs = append(vs, v)
				break
			}
		}
		r.victims = vs
		return vs
	}

	const (
		unvisited = 0
		inWalk    = 1
		done      = 2
	)
	state, rep := r.state, r.rep
	for _, start := range cand {
		if state[start] != unvisited {
			continue
		}
		walk := r.walk[:0]
		u := start
		var root graph.NodeID
		for {
			if r.labels[u] != graph.C3 {
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
		if int(root) < r.n && r.labels[root] == graph.C3 {
			// root is the surviving member of a C3 cycle.
			rep[root] = root
			state[root] = done
		}
		r.walk = walk
	}
	for _, v := range cand {
		if rp := rep[v]; rp != graph.None && rp != v {
			vs = append(vs, v)
		}
	}
	r.victims = vs
	return vs
}

// finishContractRound restores the rep/state invariants (all None/unvisited)
// touched by resolveFrontier and re-appends surviving candidates — cycle
// collapse points and naive-mode unscheduled nodes that are still C3 — to
// the c3 list, which remark alone would miss since their label did not
// transition. Runs after remark so labels are current.
func (r *Reducer) finishContractRound(g *graph.Graph) {
	for _, v := range r.cand {
		r.rep[v] = graph.None
		r.state[v] = 0
		if g.Alive(v) && r.labels[v] == graph.C3 {
			r.c3 = append(r.c3, v)
		}
	}
	r.cand = r.cand[:0]
}
