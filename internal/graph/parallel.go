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

// mutKind tags a sharded adjacency mutation.
type mutKind uint8

const (
	delOut mutKind = iota // delete out[Owner][Other]
	delIn                 // delete in[Owner][Other]
	addOut                // out[Owner][Other] += W (edge-count +1 if new)
	addIn                 // in[Owner][Other]  += W
)

// mutation is one adjacency-map update routed to the shard owning Owner.
type mutation struct {
	Owner, Other NodeID
	W            float64
	Kind         mutKind
}

// shardOf routes node ids to shards.
func shardOf(v NodeID, shards int) int { return int(v) % shards }

// applyMutations executes sharded mutations; each shard's maps and cached
// aggregates are touched by exactly one goroutine (every write is indexed by
// the mutation's Owner, and owners are routed to shards by id). It returns
// the net edge-count delta (counted on the out side only, since every edge
// lives in one out map and one in map) plus the per-shard touched sets: the
// owners of applied mutations, i.e. the surviving nodes whose adjacency —
// and therefore possibly class — changed. Touched lists may contain
// duplicates (consecutive ones are folded); callers dedup with a bitset.
func (g *Graph) applyMutations(m *par.Meter, ops par.Buckets[mutation]) (int, [][]NodeID) {
	deltas := make([]int, ops.Shards())
	touched := make([][]NodeID, ops.Shards())
	par.MeteredRunSharded(m, ops, func(s int, items []mutation) {
		d := 0
		t := make([]NodeID, 0, len(items))
		last := None
		note := func(v NodeID) {
			if v != last {
				t = append(t, v)
				last = v
			}
		}
		for _, mu := range items {
			switch mu.Kind {
			case delOut:
				if w, ok := g.out[mu.Owner][mu.Other]; ok {
					delete(g.out[mu.Owner], mu.Other)
					g.accountOut(mu.Owner, w, 0)
					d--
					note(mu.Owner)
				}
			case delIn:
				if w, ok := g.in[mu.Owner][mu.Other]; ok {
					delete(g.in[mu.Owner], mu.Other)
					g.accountIn(mu.Other, mu.Owner, w, 0)
					note(mu.Owner)
				}
			case addOut:
				old, ok := g.out[mu.Owner][mu.Other]
				if !ok {
					d++
					if g.out[mu.Owner] == nil {
						g.out[mu.Owner] = make(map[NodeID]float64)
					}
				}
				nw := clampLabel(old + mu.W)
				g.out[mu.Owner][mu.Other] = nw
				g.accountOut(mu.Owner, old, nw)
				note(mu.Owner)
			case addIn:
				old := g.in[mu.Owner][mu.Other]
				if g.in[mu.Owner] == nil {
					g.in[mu.Owner] = make(map[NodeID]float64)
				}
				nw := clampLabel(old + mu.W)
				g.in[mu.Owner][mu.Other] = nw
				g.accountIn(mu.Other, mu.Owner, old, nw)
				note(mu.Owner)
			}
		}
		deltas[s] = d
		touched[s] = t
	})
	total := 0
	for _, d := range deltas {
		total += d
	}
	return total, touched
}

func clampLabel(w float64) float64 {
	if w > 1 {
		return 1
	}
	return w
}

// killMarked clears the adjacency of every node with dead[v], marks it not
// alive, and returns (nodesRemoved, outEdgesCleared). Runs in parallel
// blocks; each block only writes state of its own ids.
func (g *Graph) killMarked(m *par.Meter, dead []bool, workers int) (int, int) {
	type delta struct{ nodes, edges int }
	n := len(g.alive)
	blocks := make([]delta, par.Blocks(n, workers))
	par.MeteredForBlocks(m, n, workers, func(b, lo, hi int) {
		var d delta
		for i := lo; i < hi; i++ {
			if !dead[i] || !g.alive[i] {
				continue
			}
			d.nodes++
			d.edges += len(g.out[i])
			g.out[i] = nil
			g.in[i] = nil
			g.alive[i] = false
			g.resetAggregates(NodeID(i))
		}
		blocks[b] = d
	})
	var nodes, edges int
	for _, d := range blocks {
		nodes += d.nodes
		edges += d.edges
	}
	return nodes, edges
}

// killList is killMarked driven by an explicit victim list instead of a
// full-capacity mark array: only the listed nodes are visited. Each block of
// the victim list writes only the state of its own victims, so duplicate ids
// in the list are not allowed.
func (g *Graph) killList(m *par.Meter, victims []NodeID, workers int) (int, int) {
	type delta struct{ nodes, edges int }
	n := len(victims)
	blocks := make([]delta, par.Blocks(n, workers))
	par.MeteredForBlocks(m, n, workers, func(b, lo, hi int) {
		var d delta
		for i := lo; i < hi; i++ {
			v := victims[i]
			if !g.alive[v] {
				continue
			}
			d.nodes++
			d.edges += len(g.out[v])
			g.out[v] = nil
			g.in[v] = nil
			g.alive[v] = false
			g.resetAggregates(v)
		}
		blocks[b] = d
	})
	var nodes, edges int
	for _, d := range blocks {
		nodes += d.nodes
		edges += d.edges
	}
	return nodes, edges
}

// ParallelRemoveMetered removes every node v with dead[v] set, together with
// all its incident edges — the parallel clean step applying rules R1/R2 to a
// whole batch of nodes at once. dead must have length Cap(). Its parallel
// steps are recorded into m (which may be nil). It returns the number of
// nodes removed.
func (g *Graph) ParallelRemoveMetered(m *par.Meter, dead []bool, workers int) int {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	n := len(g.alive)
	ops := par.MeteredCollect(m, n, workers, func(i int, emit func(int, mutation)) {
		v := NodeID(i)
		if !dead[i] || !g.alive[i] {
			return
		}
		for p := range g.in[v] {
			if !dead[p] {
				emit(shardOf(p, workers), mutation{Owner: p, Other: v, Kind: delOut})
			}
		}
		for u := range g.out[v] {
			if !dead[u] {
				emit(shardOf(u, workers), mutation{Owner: u, Other: v, Kind: delIn})
			}
		}
	})
	edgeDelta, _ := g.applyMutations(m, ops)
	nodes, cleared := g.killMarked(m, dead, workers)
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes
}

// BatchScratch owns the reusable buffers of the single-worker batch-mutator
// paths, so that steady-state rounds of a reduction allocate nothing. The
// zero value is ready to use; pass nil to let each call allocate afresh. The
// touched sets returned by a batch call share the scratch's buffers and are
// valid only until the next batch call using the same scratch. Not safe for
// concurrent use.
type BatchScratch struct {
	t  []NodeID
	tt [][]NodeID
}

// touchedSet stores t as the scratch's single touched shard and returns it.
func (sc *BatchScratch) touchedSet(t []NodeID) [][]NodeID {
	sc.t = t
	sc.tt = append(sc.tt[:0], t)
	return sc.tt
}

// RemoveBatchMetered removes exactly the listed nodes together with all
// their incident edges — the frontier-engine form of ParallelRemoveMetered,
// whose per-round cost is proportional to the victims and their edges rather
// than the whole id space. victims must be duplicate-free and sorted ascending
// (ascending order keeps the per-shard mutation streams identical to the
// full-scan path, so label merges round identically); isVictim must have
// length Cap with isVictim[v] set exactly for the victims. It returns the
// number of nodes removed and the per-shard touched sets (surviving
// neighbors whose adjacency changed). sc may be nil.
func (g *Graph) RemoveBatchMetered(m *par.Meter, victims []NodeID, isVictim []bool, workers int, sc *BatchScratch) (int, [][]NodeID) {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if m == nil && workers == 1 {
		// Single worker, nothing to meter: apply the deletions inline in
		// emission order. The sequence of map writes and aggregate updates is
		// exactly the one the 1-shard collect path would produce (victims'
		// own maps are never written during a round, so inline application
		// cannot change what later victims emit), without the goroutine and
		// bucket machinery.
		return g.removeBatchSerial(victims, isVictim, sc)
	}
	if 2*len(victims) >= g.nAlive {
		// Mass-removal round: most live nodes die. The per-victim emission
		// below pays a map-iterator setup for every victim only to discover
		// that most neighbors are victims too; scanning the few survivors'
		// maps directly is proportional to what actually remains.
		return g.removeBatchScan(m, victims, isVictim, workers)
	}
	ops := par.MeteredCollect(m, len(victims), workers, func(i int, emit func(int, mutation)) {
		v := victims[i]
		if !g.Alive(v) {
			return
		}
		for p := range g.in[v] {
			if !isVictim[p] {
				emit(shardOf(p, workers), mutation{Owner: p, Other: v, Kind: delOut})
			}
		}
		for u := range g.out[v] {
			if !isVictim[u] {
				emit(shardOf(u, workers), mutation{Owner: u, Other: v, Kind: delIn})
			}
		}
	})
	edgeDelta, touched := g.applyMutations(m, ops)
	nodes, cleared := g.killList(m, victims, workers)
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes, touched
}

// removeBatchScan is the mass-removal path of RemoveBatchMetered: instead of
// emitting per-victim mutations it walks every surviving node's adjacency in
// parallel id blocks and deletes victim entries in place. Each block writes
// only maps and aggregates indexed by its own ids (the victims' maps are
// untouched here and cleared afterwards by killList), so the pass is
// race-free without sharded routing. Deletion order within a map follows map
// iteration, so cached in-sums may differ from the emission path in the last
// bits — well inside ControlEps.
func (g *Graph) removeBatchScan(m *par.Meter, victims []NodeID, isVictim []bool, workers int) (int, [][]NodeID) {
	n := len(g.alive)
	nb := par.Blocks(n, workers)
	deltas := make([]int, nb)
	touched := make([][]NodeID, nb)
	par.MeteredForBlocks(m, n, workers, func(b, lo, hi int) {
		d := 0
		var t []NodeID
		for i := lo; i < hi; i++ {
			if !g.alive[i] || isVictim[i] {
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
				t = append(t, u)
			}
		}
		deltas[b] = d
		touched[b] = t
	})
	edgeDelta := 0
	for _, d := range deltas {
		edgeDelta += d
	}
	nodes, cleared := g.killList(m, victims, workers)
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes, touched
}

// removeBatchSerial is the single-worker path of RemoveBatchMetered: the
// same deletions and aggregate updates, applied inline in emission order
// with no sharding machinery and no allocations beyond the scratch.
func (g *Graph) removeBatchSerial(victims []NodeID, isVictim []bool, sc *BatchScratch) (int, [][]NodeID) {
	if sc == nil {
		sc = &BatchScratch{}
	}
	t := sc.t[:0]
	last := None
	note := func(v NodeID) {
		if v != last {
			t = append(t, v)
			last = v
		}
	}
	edgeDelta := 0
	if 2*len(victims) >= g.nAlive {
		// Mass removal: scan the few survivors instead (see removeBatchScan).
		for i := range g.alive {
			if !g.alive[i] || isVictim[i] {
				continue
			}
			u := NodeID(i)
			hit := false
			for v, w := range g.out[u] {
				if isVictim[v] {
					delete(g.out[u], v)
					g.accountOut(u, w, 0)
					edgeDelta--
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
				t = append(t, u)
			}
		}
	} else {
		for _, v := range victims {
			if !g.Alive(v) {
				continue
			}
			for p, w := range g.in[v] {
				if !isVictim[p] {
					delete(g.out[p], v)
					g.accountOut(p, w, 0)
					edgeDelta--
					note(p)
				}
			}
			for u, w := range g.out[v] {
				if !isVictim[u] {
					delete(g.in[u], v)
					g.accountIn(v, u, w, 0)
					note(u)
				}
			}
		}
	}
	nodes, cleared := 0, 0
	for _, v := range victims {
		if !g.Alive(v) {
			continue
		}
		nodes++
		cleared += len(g.out[v])
		g.out[v] = nil
		g.in[v] = nil
		g.alive[v] = false
		g.resetAggregates(v)
	}
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes, sc.touchedSet(t)
}

// ParallelContractMetered applies reduction rule R3 to every node v whose
// rep[v] is a node different from v: v is removed, its incoming edges are
// deleted, and its outgoing edges are transferred to rep[v] with
// parallel-edge labels merged and self loops dropped.
//
// rep must have length Cap(). rep[v] == None means v is untouched;
// rep[v] == v means v survives this round (it is the collapse point of a
// cycle of directly-controlled nodes). Every contracted node's rep must be a
// node that survives the round. Its parallel steps are recorded into m
// (which may be nil). It returns the number of nodes contracted.
func (g *Graph) ParallelContractMetered(m *par.Meter, rep []NodeID, workers int) int {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	contracted := func(v NodeID) bool {
		r := rep[v]
		return r != None && r != v
	}
	n := len(g.alive)
	dead := make([]bool, n)
	ops := par.MeteredCollect(m, n, workers, func(i int, emit func(int, mutation)) {
		v := NodeID(i)
		if !g.alive[i] || !contracted(v) {
			return
		}
		dead[i] = true
		r := rep[v]
		for p := range g.in[v] {
			if !contracted(p) {
				emit(shardOf(p, workers), mutation{Owner: p, Other: v, Kind: delOut})
			}
		}
		for u, w := range g.out[v] {
			if contracted(u) {
				// u dies this round; the edge vanishes with it.
				continue
			}
			emit(shardOf(u, workers), mutation{Owner: u, Other: v, Kind: delIn})
			if u == r {
				// Transferring (v, r) to r would create a self loop; R3
				// excludes it.
				continue
			}
			emit(shardOf(r, workers), mutation{Owner: r, Other: u, W: w, Kind: addOut})
			emit(shardOf(u, workers), mutation{Owner: u, Other: r, W: w, Kind: addIn})
		}
	})
	edgeDelta, _ := g.applyMutations(m, ops)
	nodes, cleared := g.killMarked(m, dead, workers)
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes
}

// ContractBatchMetered applies rule R3 to exactly the listed nodes — the
// frontier-engine form of ParallelContractMetered. victims must be
// duplicate-free, sorted ascending, and satisfy rep[v] != None && rep[v] != v
// for every entry; rep must have length Cap and follow the
// ParallelContractMetered contract for every node id (None for untouched
// nodes). It returns the number of nodes contracted and the per-shard touched
// sets: surviving neighbors whose edges were deleted, representatives that
// received transferred edges, and transfer targets. sc may be nil.
func (g *Graph) ContractBatchMetered(m *par.Meter, victims []NodeID, rep []NodeID, workers int, sc *BatchScratch) (int, [][]NodeID) {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if m == nil && workers == 1 {
		return g.contractBatchSerial(victims, rep, sc)
	}
	contracted := func(v NodeID) bool {
		r := rep[v]
		return r != None && r != v
	}
	ops := par.MeteredCollect(m, len(victims), workers, func(i int, emit func(int, mutation)) {
		v := victims[i]
		if !g.Alive(v) || !contracted(v) {
			return
		}
		r := rep[v]
		for p := range g.in[v] {
			if !contracted(p) {
				emit(shardOf(p, workers), mutation{Owner: p, Other: v, Kind: delOut})
			}
		}
		for u, w := range g.out[v] {
			if contracted(u) {
				// u dies this round; the edge vanishes with it.
				continue
			}
			emit(shardOf(u, workers), mutation{Owner: u, Other: v, Kind: delIn})
			if u == r {
				// Transferring (v, r) to r would create a self loop; R3
				// excludes it.
				continue
			}
			emit(shardOf(r, workers), mutation{Owner: r, Other: u, W: w, Kind: addOut})
			emit(shardOf(u, workers), mutation{Owner: u, Other: r, W: w, Kind: addIn})
		}
	})
	edgeDelta, touched := g.applyMutations(m, ops)
	nodes, cleared := g.killList(m, victims, workers)
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes, touched
}

// contractBatchSerial is the single-worker path of ContractBatchMetered: the
// same edge deletions, transfers and label merges, applied inline in
// emission order. Inline application is sound for the same reason as in
// removeBatchSerial — every write of a contraction round lands in a
// survivor's maps, so the victims' adjacency read by later iterations is
// exactly what the collect phase would have seen.
func (g *Graph) contractBatchSerial(victims []NodeID, rep []NodeID, sc *BatchScratch) (int, [][]NodeID) {
	if sc == nil {
		sc = &BatchScratch{}
	}
	contracted := func(v NodeID) bool {
		r := rep[v]
		return r != None && r != v
	}
	t := sc.t[:0]
	last := None
	note := func(v NodeID) {
		if v != last {
			t = append(t, v)
			last = v
		}
	}
	edgeDelta := 0
	for _, v := range victims {
		if !g.Alive(v) || !contracted(v) {
			continue
		}
		r := rep[v]
		for p, w := range g.in[v] {
			if !contracted(p) {
				delete(g.out[p], v)
				g.accountOut(p, w, 0)
				edgeDelta--
				note(p)
			}
		}
		for u, w := range g.out[v] {
			if contracted(u) {
				// u dies this round; the edge vanishes with it.
				continue
			}
			if iw, ok := g.in[u][v]; ok {
				delete(g.in[u], v)
				g.accountIn(v, u, iw, 0)
				note(u)
			}
			if u == r {
				// Transferring (v, r) to r would create a self loop; R3
				// excludes it.
				continue
			}
			old, ok := g.out[r][u]
			if !ok {
				edgeDelta++
				if g.out[r] == nil {
					g.out[r] = make(map[NodeID]float64)
				}
			}
			nw := clampLabel(old + w)
			g.out[r][u] = nw
			g.accountOut(r, old, nw)
			note(r)
			oldIn := g.in[u][r]
			if g.in[u] == nil {
				g.in[u] = make(map[NodeID]float64)
			}
			nwIn := clampLabel(oldIn + w)
			g.in[u][r] = nwIn
			g.accountIn(r, u, oldIn, nwIn)
			note(u)
		}
	}
	nodes, cleared := 0, 0
	for _, v := range victims {
		if !g.Alive(v) {
			continue
		}
		nodes++
		cleared += len(g.out[v])
		g.out[v] = nil
		g.in[v] = nil
		g.alive[v] = false
		g.resetAggregates(v)
	}
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes, sc.touchedSet(t)
}
