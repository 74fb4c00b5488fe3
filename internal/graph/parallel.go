package graph

import (
	"ccp/internal/par"
)

// ControlEps absorbs float64 rounding in control-threshold comparisons:
// 0.3+0.2 must not be considered "more than half".
const ControlEps = 1e-9

// ExceedsControl reports whether an ownership fraction x is strictly more
// than half, with rounding slack.
func ExceedsControl(x float64) bool { return x > ControlThreshold+ControlEps }

// mutKind is the kind of an adjacency mutation.
type mutKind uint8

const (
	delOut mutKind = iota // delete out[Owner][Other], whose label is W
	delIn                 // delete in[Owner][Other], whose label is W
	addOut                // out[Owner][Other] += W (edge-count +1 if new)
	addIn                 // in[Owner][Other]  += W
)

// mutation is one adjacency-map update; it writes only Owner's maps and
// cached aggregates, so mutations routed to Owner's shard never race. A
// deletion carries the label it deletes: every edge's label is mirrored in
// one out map and one in map, and each edge is deleted by exactly one
// mutation per batch, so the entry is known to exist.
type mutation struct {
	Owner, Other NodeID
	W            float64
	Kind         mutKind
}

// batch is one round of the reduction's clean or simplify step: the victims
// retired together, and either the removal marks (R1/R2, rep == nil) or the
// representatives that absorb the victims' outgoing edges (R3).
type batch struct {
	victims  []NodeID
	isVictim []bool
	rep      []NodeID
}

// dies reports whether u is retired by the batch.
func (bt batch) dies(u NodeID) bool {
	if bt.rep == nil {
		return bt.isVictim[u]
	}
	r := bt.rep[u]
	return r != None && r != u
}

// emitVictim streams the mutations that retire victim v: the deletion of
// every edge between v and a surviving neighbor and, under R3, the transfer
// of each surviving out-edge (v, u) to rep[v], merged into any parallel edge.
// Every mutation is owned by a survivor, so v's own maps — read here — are
// never written during a batch, whatever order the mutations apply in.
func (g *Graph) emitVictim(bt batch, v NodeID, emit sink) {
	for p, w := range g.in[v] {
		if !bt.dies(p) {
			emit.put(mutation{Owner: p, Other: v, W: w, Kind: delOut})
		}
	}
	r := None
	if bt.rep != nil {
		r = bt.rep[v]
	}
	for u, w := range g.out[v] {
		if bt.dies(u) {
			continue // u dies this batch; the edge vanishes with it
		}
		emit.put(mutation{Owner: u, Other: v, W: w, Kind: delIn})
		if r == None || u == r {
			continue // removal, or a self loop R3 excludes
		}
		emit.put(mutation{Owner: r, Other: u, W: w, Kind: addOut})
		emit.put(mutation{Owner: u, Other: r, W: w, Kind: addIn})
	}
}

// sink receives emitted mutations: the inline mode applies each at once, the
// sharded mode buckets it by owner shard. It is a struct rather than a func
// value so the inline mode's per-mutation apply is a direct call.
type sink struct {
	a    *applier
	emit func(shard int, mu mutation)
}

func (s sink) put(mu mutation) {
	if s.a != nil {
		s.a.apply(mu)
	} else {
		s.emit(int(mu.Owner), mu)
	}
}

// applier applies mutations to its graph in order, tallying the edge-count
// delta (counted on the out side only, since every edge lives in one out map
// and one in map) and the touched set: the owners whose adjacency — and
// therefore possibly class — changed, consecutive duplicates folded.
type applier struct {
	g       *Graph
	delta   int
	touched []NodeID
	last    NodeID
}

func (a *applier) note(v NodeID) {
	if v != a.last {
		a.touched = append(a.touched, v)
		a.last = v
	}
}

func (a *applier) apply(mu mutation) {
	g := a.g
	switch mu.Kind {
	case delOut:
		delete(g.out[mu.Owner], mu.Other)
		g.accountOut(mu.Owner, mu.W, 0)
		a.delta--
	case delIn:
		delete(g.in[mu.Owner], mu.Other)
		g.accountIn(mu.Other, mu.Owner, mu.W, 0)
	case addOut:
		old, ok := g.out[mu.Owner][mu.Other]
		if !ok {
			a.delta++
			if g.out[mu.Owner] == nil {
				g.out[mu.Owner] = make(map[NodeID]float64)
			}
		}
		nw := clampLabel(old + mu.W)
		g.out[mu.Owner][mu.Other] = nw
		g.accountOut(mu.Owner, old, nw)
	case addIn:
		old := g.in[mu.Owner][mu.Other]
		if g.in[mu.Owner] == nil {
			g.in[mu.Owner] = make(map[NodeID]float64)
		}
		nw := clampLabel(old + mu.W)
		g.in[mu.Owner][mu.Other] = nw
		g.accountIn(mu.Other, mu.Owner, old, nw)
	}
	a.note(mu.Owner)
}

// scan is the mass-removal form of a removal batch over the survivors with
// ids in [lo, hi): instead of applying per-victim mutations it walks each
// survivor's adjacency and deletes victim entries in place, which is
// proportional to what remains rather than to what dies. It visits live ids
// only (see nextLive), so a sparse id space costs no pass over its dead
// slots. It writes only maps and aggregates of its own ids. Deletion order
// within a map follows map iteration, so cached in-sums may differ from the
// emission path in the last bits — well inside ControlEps.
func (a *applier) scan(isVictim []bool, lo, hi int) {
	g := a.g
	d := 0
	for i := g.nextLive(lo, hi); i < hi; i = g.nextLive(i+1, hi) {
		if isVictim[i] {
			continue
		}
		u := NodeID(i)
		hit := false
		for v, w := range g.out[u] {
			if isVictim[v] {
				delete(g.out[u], v)
				g.accountOut(u, w, 0)
				d--
				hit = true
			}
		}
		for p, w := range g.in[u] {
			if isVictim[p] {
				delete(g.in[u], p)
				g.accountIn(p, u, w, 0)
				hit = true
			}
		}
		if hit {
			a.note(u)
		}
	}
	a.delta += d
}

func clampLabel(w float64) float64 {
	if w > 1 {
		return 1
	}
	return w
}

// kill empties the adjacency of every listed live node, marks it dead and
// returns (nodesRemoved, outEdgesCleared). A victim's maps are cleared, not
// dropped: a reduction removes most of a per-query scratch copy, and the
// tables it keeps are what lets the next CloneInto into the same scratch run
// without allocating. Only the victims' own entries are written, so sharded
// kills of disjoint victims never race.
func (g *Graph) kill(victims []NodeID) (nodes, edges int) {
	for _, v := range victims {
		if !g.alive[v] {
			continue
		}
		nodes++
		edges += len(g.out[v])
		clear(g.out[v])
		clear(g.in[v])
		g.alive[v] = false
		g.resetAggregates(v)
	}
	return nodes, edges
}

// BatchScratch owns the reusable buffers of the inline batch path, so that
// steady-state rounds of a reduction allocate nothing. The zero value is
// ready to use; pass nil to let each call allocate afresh. The touched sets
// returned by a batch call share the scratch's buffers and are valid only
// until the next batch call using the same scratch. Not safe for concurrent
// use.
type BatchScratch struct {
	t  []NodeID
	tt [][]NodeID
}

// RemoveBatchMetered removes exactly the listed nodes together with all
// their incident edges — the parallel clean step applying rules R1/R2 to a
// whole batch of nodes at once, at a cost proportional to the victims and
// their edges rather than the whole id space. victims must be duplicate-free
// and sorted ascending (ascending order fixes the per-shard mutation
// streams, so label merges round identically run to run); isVictim must have
// length Cap with isVictim[v] set exactly for the victims. Parallel steps are
// recorded into m (which may be nil). It returns the number of nodes removed
// and the per-shard touched sets (surviving neighbors whose adjacency
// changed). sc may be nil.
func (g *Graph) RemoveBatchMetered(m *par.Meter, victims []NodeID, isVictim []bool, workers int, sc *BatchScratch) (int, [][]NodeID) {
	return g.retire(m, batch{victims: victims, isVictim: isVictim}, workers, sc)
}

// ContractBatchMetered applies rule R3 to exactly the listed nodes: each
// victim v is removed, its incoming edges are deleted, and its outgoing
// edges are transferred to rep[v] with parallel-edge labels merged and self
// loops dropped. victims must be duplicate-free, sorted ascending, and
// satisfy rep[v] != None && rep[v] != v; rep must have length Cap, with
// rep[u] == None for untouched nodes and rep[u] == u for a node that
// survives the round (the collapse point of a cycle of directly-controlled
// nodes). Every victim's rep must survive the round. It returns the number
// of nodes contracted and the per-shard touched sets: surviving neighbors
// whose edges were deleted, representatives that received transferred
// edges, and transfer targets. sc may be nil.
func (g *Graph) ContractBatchMetered(m *par.Meter, victims []NodeID, rep []NodeID, workers int, sc *BatchScratch) (int, [][]NodeID) {
	return g.retire(m, batch{victims: victims, rep: rep}, workers, sc)
}

// retire executes one batch in one of two application modes. With one
// worker and nothing to meter it is inline: each mutation applies as it is
// emitted, with no goroutine, bucket or allocation. The inline mode calls
// the shared bodies (emitVictim, applier, kill) directly rather than through
// par, because a closure handed to a function that may start goroutines
// escapes to the heap — an allocation per round. Otherwise the mutations are
// bucketed by owner shard and applied shard-parallel. A removal batch that
// kills at least half the live nodes scans the survivors instead of
// emitting per victim (see applier.scan).
func (g *Graph) retire(m *par.Meter, bt batch, workers int, sc *BatchScratch) (int, [][]NodeID) {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	mass := bt.rep == nil && 2*len(bt.victims) >= g.nAlive
	var nodes, cleared, delta int
	var touched [][]NodeID
	if m == nil && workers == 1 {
		if sc == nil {
			sc = &BatchScratch{}
		}
		a := applier{g: g, touched: sc.t[:0], last: None}
		if mass {
			a.scan(bt.isVictim, 0, len(g.alive))
		} else {
			for _, v := range bt.victims {
				if g.alive[v] {
					g.emitVictim(bt, v, sink{a: &a})
				}
			}
		}
		nodes, cleared = g.kill(bt.victims)
		delta, sc.t = a.delta, a.touched
		sc.tt = append(sc.tt[:0], a.touched)
		touched = sc.tt
	} else {
		if mass {
			delta, touched = g.scanSharded(m, bt.isVictim, workers)
		} else {
			ops := par.Collect(m, len(bt.victims), workers, func(i int, emit func(int, mutation)) {
				if v := bt.victims[i]; g.alive[v] {
					g.emitVictim(bt, v, sink{emit: emit})
				}
			})
			delta, touched = g.applySharded(m, ops)
		}
		nodes, cleared = g.killSharded(m, bt.victims, workers)
	}
	g.nAlive -= nodes
	g.nEdges += delta - cleared
	return nodes, touched
}

// applySharded applies bucketed mutations, one goroutine per shard; each
// shard's maps and cached aggregates are touched by exactly that goroutine.
// It returns the summed edge-count delta and the per-shard touched sets.
func (g *Graph) applySharded(m *par.Meter, ops par.Buckets[mutation]) (int, [][]NodeID) {
	deltas := make([]int, ops.Shards())
	touched := make([][]NodeID, ops.Shards())
	par.RunSharded(m, ops, func(s int, items []mutation) {
		a := applier{g: g, touched: make([]NodeID, 0, len(items)), last: None}
		for _, mu := range items {
			a.apply(mu)
		}
		deltas[s], touched[s] = a.delta, a.touched
	})
	return sum(deltas), touched
}

// scanSharded runs applier.scan over the id space in parallel blocks.
func (g *Graph) scanSharded(m *par.Meter, isVictim []bool, workers int) (int, [][]NodeID) {
	n := len(g.alive)
	deltas := make([]int, par.Blocks(n, workers))
	touched := make([][]NodeID, len(deltas))
	par.ForBlocks(m, n, workers, func(b, lo, hi int) {
		a := applier{g: g, last: None}
		a.scan(isVictim, lo, hi)
		deltas[b], touched[b] = a.delta, a.touched
	})
	return sum(deltas), touched
}

// killSharded runs kill over the victim list in parallel blocks; each block
// writes only the state of its own victims.
func (g *Graph) killSharded(m *par.Meter, victims []NodeID, workers int) (int, int) {
	nb := par.Blocks(len(victims), workers)
	nodes, edges := make([]int, nb), make([]int, nb)
	par.ForBlocks(m, len(victims), workers, func(b, lo, hi int) {
		nodes[b], edges[b] = g.kill(victims[lo:hi])
	})
	return sum(nodes), sum(edges)
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
