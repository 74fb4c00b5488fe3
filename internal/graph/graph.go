// Package graph implements the business ownership graph of the company
// control problem: a directed graph whose nodes are companies and whose
// edge labels are equity fractions in (0, 1].
//
// The representation is optimized for the reduction algorithms of the
// paper: node removal, edge transfer and label merging are all O(1) per
// edge, and nodes are identified by dense int32 ids so that parallel
// workers can own disjoint id shards.
package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"unsafe"
)

// NodeID identifies a company inside a Graph. Ids are dense: a graph with n
// nodes uses ids 0..n-1. Ids are stable across node removal; removed ids are
// never reused.
type NodeID int32

// None is the null node id.
const None NodeID = -1

// ControlThreshold is the ownership fraction strictly above which a company
// (or a controlled group) controls another company.
const ControlThreshold = 0.5

// sumSlack absorbs float64 rounding when validating that the incoming labels
// of a node sum to at most 1.
const sumSlack = 1e-9

// Graph is a mutable ownership graph. The zero value is an empty graph.
//
// Invariants maintained by the mutators:
//   - no self loops,
//   - no parallel edges (AddEdge rejects duplicates, MergeEdge sums labels),
//   - every label is in (0, 1],
//   - a dead id holds no edges and has reset aggregates: its edge maps are
//     nil or empty, its in-sum and counts zero, its controlling predecessor
//     None. Emptying a graph for reuse (Reset, ResetTo, InducedInto,
//     DecodeBinaryInto) therefore visits its live nodes only.
//
// The incoming-label sum of a node may transiently exceed 1 during R3 label
// transfer; CheckOwnership verifies the input-data invariant sum <= 1.
//
// Every mutator additionally maintains per-node cached aggregates — the
// incoming-label sum, the number of incoming and outgoing labels exceeding
// the control threshold, and (when unique) the predecessor holding the
// controlling stake — so that ClassOf, InSum, DirectController and the
// termination checks are O(1) lookups instead of adjacency scans. The cached
// in-sum is updated incrementally; float drift stays orders of magnitude
// below ControlEps because every delta is exact to one rounding of the
// running sum.
//
// A Graph owns every one of its maps: no two graphs share state, so a copy
// (Clone, CloneInto) is the only way to hand a graph's contents to a reader
// that must not see later mutations. A Graph is not safe for concurrent
// mutation, nor for reads concurrent with a mutation; callers that share one
// serialize access (a site guards its partition with a reader/writer lock).
// The par package routes concurrent mutations so that each node's adjacency
// is touched by exactly one goroutine (aggregates of a node are only written
// by the worker owning that node's shard).
type Graph struct {
	out    []map[NodeID]float64
	in     []map[NodeID]float64
	alive  []bool
	nAlive int
	nEdges int

	// Cached aggregates, indexed by node id.
	inSum  []float64 // Σ incoming labels
	inBig  []int32   // #incoming labels exceeding the control threshold
	bigIn  []NodeID  // a predecessor with a controlling stake (None if inBig == 0)
	outBig []int32   // #outgoing labels exceeding the control threshold
}

// New returns a graph with n live nodes (ids 0..n-1) and no edges.
func New(n int) *Graph {
	g := newShell(n)
	for i := range g.alive {
		g.alive[i] = true
	}
	g.nAlive = n
	return g
}

// newShell allocates a graph with the given id capacity and every node dead.
// Callers revive nodes and insert edges through the regular mutators so the
// cached aggregates stay consistent.
func newShell(capacity int) *Graph {
	g := &Graph{
		out:    make([]map[NodeID]float64, capacity),
		in:     make([]map[NodeID]float64, capacity),
		alive:  make([]bool, capacity),
		inSum:  make([]float64, capacity),
		inBig:  make([]int32, capacity),
		bigIn:  make([]NodeID, capacity),
		outBig: make([]int32, capacity),
	}
	fillNone(g.bigIn)
	return g
}

// fillNone sets every entry of s to None, doubling the filled prefix with
// copy so a long slice is filled at memmove speed.
func fillNone(s []NodeID) {
	if len(s) == 0 {
		return
	}
	s[0] = None
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// accountIn folds a label change of edge (u, v) — old to w, either of which
// may be 0 for insertion/deletion — into v's cached in-aggregates.
func (g *Graph) accountIn(u, v NodeID, old, w float64) {
	g.inSum[v] += w - old
	ob, nb := ExceedsControl(old), ExceedsControl(w)
	switch {
	case nb && !ob:
		g.inBig[v]++
		g.bigIn[v] = u
	case ob && !nb:
		g.inBig[v]--
		if g.inBig[v] == 0 {
			g.bigIn[v] = None
		} else if g.bigIn[v] == u {
			g.refreshBigIn(v)
		}
	}
}

// refreshBigIn rescans v's in-adjacency for a controlling predecessor. It
// only runs when several controlling stakes coexist (in-sum transiently
// above 1) and the tracked one disappears.
func (g *Graph) refreshBigIn(v NodeID) {
	g.bigIn[v] = None
	for u, w := range g.in[v] {
		if ExceedsControl(w) && (g.bigIn[v] == None || u < g.bigIn[v]) {
			g.bigIn[v] = u
		}
	}
}

// accountOut folds a label change of an edge leaving u into u's cached
// out-aggregates.
func (g *Graph) accountOut(u NodeID, old, w float64) {
	ob, nb := ExceedsControl(old), ExceedsControl(w)
	if nb && !ob {
		g.outBig[u]++
	} else if ob && !nb {
		g.outBig[u]--
	}
}

// resetAggregates clears the cached aggregates of a removed node.
func (g *Graph) resetAggregates(v NodeID) {
	g.inSum[v] = 0
	g.inBig[v] = 0
	g.bigIn[v] = None
	g.outBig[v] = 0
}

// Cap returns the id-space size of the graph: all node ids are < Cap.
// Removed nodes still count toward Cap.
func (g *Graph) Cap() int { return len(g.alive) }

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.nAlive }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// Alive reports whether v is a live node of the graph.
func (g *Graph) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(g.alive) && g.alive[v]
}

// Revive marks id as live, extending the id space if necessary. It is used
// when assembling a graph from serialized node lists that preserve global
// ids.
func (g *Graph) Revive(v NodeID) {
	for int(v) >= len(g.alive) {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
		g.alive = append(g.alive, false)
		g.inSum = append(g.inSum, 0)
		g.inBig = append(g.inBig, 0)
		g.bigIn = append(g.bigIn, None)
		g.outBig = append(g.outBig, 0)
	}
	if !g.alive[v] {
		g.alive[v] = true
		g.nAlive++
	}
}

// AddEdge inserts the edge (u, v) with ownership fraction w.
// It returns an error if either endpoint is dead, the edge would be a self
// loop or a parallel edge, or w is outside (0, 1].
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if err := g.checkEndpoints(u, v, w); err != nil {
		return err
	}
	if _, dup := g.out[u][v]; dup {
		return fmt.Errorf("graph: parallel edge (%d,%d)", u, v)
	}
	g.setEdge(u, v, w)
	return nil
}

// MergeEdge inserts the edge (u, v) with fraction w, summing labels if the
// edge already exists (the parallel-edge merge of reduction rule R3).
// The merged label is clamped to 1 to absorb rounding.
func (g *Graph) MergeEdge(u, v NodeID, w float64) error {
	if err := g.checkEndpoints(u, v, w); err != nil {
		return err
	}
	if old, ok := g.out[u][v]; ok {
		nw := old + w
		if nw > 1 {
			nw = 1
		}
		g.out[u][v] = nw
		g.in[v][u] = nw
		g.accountOut(u, old, nw)
		g.accountIn(u, v, old, nw)
		return nil
	}
	g.setEdge(u, v, w)
	return nil
}

func (g *Graph) checkEndpoints(u, v NodeID, w float64) error {
	if !g.Alive(u) || !g.Alive(v) {
		return fmt.Errorf("graph: edge (%d,%d) has a dead endpoint", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on %d", u)
	}
	if w <= 0 || w > 1 || math.IsNaN(w) {
		return fmt.Errorf("graph: label %g of edge (%d,%d) outside (0,1]", w, u, v)
	}
	return nil
}

func (g *Graph) setEdge(u, v NodeID, w float64) {
	if g.out[u] == nil {
		g.out[u] = make(map[NodeID]float64)
	}
	if g.in[v] == nil {
		g.in[v] = make(map[NodeID]float64)
	}
	g.out[u][v] = w
	g.in[v][u] = w
	g.accountOut(u, 0, w)
	g.accountIn(u, v, 0, w)
	g.nEdges++
}

// Label returns the ownership fraction of edge (u, v) and whether the edge
// exists.
func (g *Graph) Label(u, v NodeID) (float64, bool) {
	if !g.Alive(u) {
		return 0, false
	}
	w, ok := g.out[u][v]
	return w, ok
}

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.Label(u, v)
	return ok
}

// RemoveEdge deletes edge (u, v) if present and reports whether it existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !g.Alive(u) || !g.Alive(v) {
		return false
	}
	w, ok := g.out[u][v]
	if !ok {
		return false
	}
	delete(g.out[u], v)
	delete(g.in[v], u)
	g.accountOut(u, w, 0)
	g.accountIn(u, v, w, 0)
	g.nEdges--
	return true
}

// RemoveNode deletes v and all its incident edges (the action of rules R1
// and R2). It reports whether v was live. v's maps are cleared, not dropped,
// so their tables stay for the next CloneInto into this graph.
func (g *Graph) RemoveNode(v NodeID) bool {
	if !g.Alive(v) {
		return false
	}
	for u, w := range g.in[v] {
		delete(g.out[u], v)
		g.accountOut(u, w, 0)
		g.nEdges--
	}
	for u, w := range g.out[v] {
		delete(g.in[u], v)
		g.accountIn(v, u, w, 0)
		g.nEdges--
	}
	clear(g.out[v])
	clear(g.in[v])
	g.alive[v] = false
	g.nAlive--
	g.resetAggregates(v)
	return true
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	if !g.Alive(v) {
		return 0
	}
	return len(g.out[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	if !g.Alive(v) {
		return 0
	}
	return len(g.in[v])
}

// InSum returns the sum of the labels of the incoming edges of v. It is an
// O(1) read of the cached aggregate.
func (g *Graph) InSum(v NodeID) float64 {
	if !g.Alive(v) {
		return 0
	}
	return g.inSum[v]
}

// HasControllingOut reports in O(1) whether v holds a controlling stake
// (label exceeding the control threshold) in any successor.
func (g *Graph) HasControllingOut(v NodeID) bool {
	return g.Alive(v) && g.outBig[v] > 0
}

// maxInLabel returns the largest incoming label of v and the predecessor
// holding it, or (None, 0) if v has no incoming edges.
func (g *Graph) maxInLabel(v NodeID) (NodeID, float64) {
	if !g.Alive(v) {
		return None, 0
	}
	best, bw := None, 0.0
	for u, w := range g.in[v] {
		if w > bw || (w == bw && (best == None || u < best)) {
			best, bw = u, w
		}
	}
	return best, bw
}

// DirectController returns the unique predecessor owning strictly more than
// half of v, or None. At most one such predecessor can exist because the
// incoming labels of a node sum to at most 1, which makes this an O(1)
// lookup of the cached controlling predecessor. If the invariant is broken
// and several controlling stakes coexist, it falls back to the maxInLabel
// scan to preserve the historical tie-break (largest label, then lowest id).
func (g *Graph) DirectController(v NodeID) NodeID {
	if !g.Alive(v) {
		return None
	}
	switch g.inBig[v] {
	case 0:
		return None
	case 1:
		return g.bigIn[v]
	}
	u, w := g.maxInLabel(v)
	if u != None && ExceedsControl(w) {
		return u
	}
	return None
}

// EachOut calls fn for every outgoing edge (v, u) with label w.
// fn must not mutate the graph; iteration order is unspecified.
func (g *Graph) EachOut(v NodeID, fn func(u NodeID, w float64)) {
	if !g.Alive(v) {
		return
	}
	for u, w := range g.out[v] {
		fn(u, w)
	}
}

// EachIn calls fn for every incoming edge (u, v) with label w.
// fn must not mutate the graph; iteration order is unspecified.
func (g *Graph) EachIn(v NodeID, fn func(u NodeID, w float64)) {
	if !g.Alive(v) {
		return
	}
	for u, w := range g.in[v] {
		fn(u, w)
	}
}

// EachNode calls fn for every live node, in ascending id order. Dead
// stretches of the id space are skipped as nextLive skips them.
func (g *Graph) EachNode(fn func(v NodeID)) {
	n := len(g.alive)
	for i := g.nextLive(0, n); i < n; i = g.nextLive(i+1, n) {
		fn(NodeID(i))
	}
}

// AppendLive appends the live node ids to dst in ascending order and
// returns the extended slice. Its cost follows the live nodes, plus a byte
// search over the dead stretches between them (see nextLive).
func (g *Graph) AppendLive(dst []NodeID) []NodeID {
	n := len(g.alive)
	for i := g.nextLive(0, n); i < n; i = g.nextLive(i+1, n) {
		dst = append(dst, NodeID(i))
	}
	return dst
}

// nextLive returns the least live id in [i, hi), or hi when there is none.
// A bool is one byte holding 0 or 1, so a dead stretch is skipped by a byte
// search over the live flags, which the runtime runs many flags per
// instruction: a graph that keeps a hundred nodes of a 30 000-id space is
// walked in a small fraction of a pass over its ids. A live id at i itself,
// the common case in a dense graph, is returned without the search.
func (g *Graph) nextLive(i, hi int) int {
	if i >= hi {
		return hi
	}
	if g.alive[i] {
		return i
	}
	flags := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(g.alive))), hi)
	if j := bytes.IndexByte(flags[i:], 1); j >= 0 {
		return i + j
	}
	return hi
}

// Successors returns the successor ids of v in unspecified order.
func (g *Graph) Successors(v NodeID) []NodeID {
	if !g.Alive(v) {
		return nil
	}
	succ := make([]NodeID, 0, len(g.out[v]))
	for u := range g.out[v] {
		succ = append(succ, u)
	}
	return succ
}

// Predecessors returns the predecessor ids of v in unspecified order.
func (g *Graph) Predecessors(v NodeID) []NodeID {
	if !g.Alive(v) {
		return nil
	}
	pred := make([]NodeID, 0, len(g.in[v]))
	for u := range g.in[v] {
		pred = append(pred, u)
	}
	return pred
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		out:    make([]map[NodeID]float64, len(g.out)),
		in:     make([]map[NodeID]float64, len(g.in)),
		alive:  make([]bool, len(g.alive)),
		nAlive: g.nAlive,
		nEdges: g.nEdges,
		inSum:  make([]float64, len(g.inSum)),
		inBig:  make([]int32, len(g.inBig)),
		bigIn:  make([]NodeID, len(g.bigIn)),
		outBig: make([]int32, len(g.outBig)),
	}
	copy(c.alive, g.alive)
	copy(c.inSum, g.inSum)
	copy(c.inBig, g.inBig)
	copy(c.bigIn, g.bigIn)
	copy(c.outBig, g.outBig)
	for i, m := range g.out {
		c.out[i] = cloneMap(m)
	}
	for i, m := range g.in {
		c.in[i] = cloneMap(m)
	}
	return c
}

// cloneMap copies one adjacency map for Clone. An empty map — a dead node's,
// which removal clears but keeps — becomes nil, so a Clone of a reduced
// graph is compact: it holds tables only for the nodes that still have
// edges.
func cloneMap(m map[NodeID]float64) map[NodeID]float64 {
	if len(m) == 0 {
		return nil
	}
	// maps.Clone copies the table wholesale in the runtime, far faster than
	// insert-by-insert.
	return maps.Clone(m)
}

// CloneInto deep-copies g into dst, reusing dst's backing slices and
// per-node edge maps instead of allocating fresh ones. It returns the graph
// actually written: dst, or a fresh Clone when dst is nil or g itself. A
// pooled destination reaches steady state after one round trip — every map
// table it needs already exists — so repeated clones of same-shaped graphs
// stop allocating entirely. The steady state survives reducing dst between
// two clones: node removal clears a removed node's tables instead of
// dropping them, so the clone → reduce → clone cycle of a live site
// evaluation allocates nothing once warm. Growing a table past its old size
// still allocates. CloneInto only reads g, so any number of copies may run
// concurrently as long as nothing mutates g meanwhile.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst == nil || dst == g {
		return g.Clone()
	}
	dst.sizeTo(len(g.alive))
	copy(dst.alive, g.alive)
	copy(dst.inSum, g.inSum)
	copy(dst.inBig, g.inBig)
	copy(dst.bigIn, g.bigIn)
	copy(dst.outBig, g.outBig)
	dst.nAlive = g.nAlive
	dst.nEdges = g.nEdges
	for i := range g.out {
		dst.out[i] = copyMapInto(dst.out[i], g.out[i])
		dst.in[i] = copyMapInto(dst.in[i], g.in[i])
	}
	return dst
}

// copyMapInto makes dst hold exactly src's entries, reusing dst's table when
// one exists. An empty source clears dst but keeps its table, so a reused
// graph's maps survive round trips through sparser clones.
func copyMapInto(dst, src map[NodeID]float64) map[NodeID]float64 {
	if len(src) == 0 {
		clear(dst)
		return dst
	}
	if dst == nil {
		return maps.Clone(src)
	}
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Reset empties the graph — every node dead, no edges, aggregates reset —
// keeping its id-space length and its edge maps, cleared in place, so a
// pooled scratch graph can be rebuilt without allocating. It visits the
// live nodes only.
func (g *Graph) Reset() { g.emptyTo(len(g.alive)) }

// ResetTo empties the graph into n live nodes, ids 0..n-1, and no edges. Like
// Reset it keeps the backing slices and the edge maps, cleared in place, so a
// pooled scratch graph rebuilt at a similar size allocates nothing.
func (g *Graph) ResetTo(n int) {
	g.emptyTo(n)
	for i := range g.alive {
		g.alive[i] = true
	}
	g.nAlive = n
}

// emptyTo empties g into n dead ids and no edges, keeping its slices and
// edge maps. By the dead-id invariant only the live nodes g held need
// clearing, so the cost is those nodes plus any growth, not the id space.
// Ids a growth reveals are cleaned too: a shrinking sizeTo (CloneInto of a
// smaller graph) leaves the entries past the length as they were, live ones
// included, and a backing array's spare capacity has no None in bigIn.
func (g *Graph) emptyTo(n int) {
	old := len(g.alive)
	g.clearLive(0, old)
	g.sizeTo(n)
	if n > old {
		g.clearLive(old, n)
		fillNone(g.bigIn[old:])
	}
	g.nAlive, g.nEdges = 0, 0
}

// clearLive kills the live ids in [lo, hi), emptying their edge maps and
// resetting their aggregates without touching any other node: it serves
// emptyTo, which clears every live node of the graph.
func (g *Graph) clearLive(lo, hi int) {
	for i := g.nextLive(lo, hi); i < hi; i = g.nextLive(i+1, hi) {
		clear(g.out[i])
		clear(g.in[i])
		g.alive[i] = false
		g.resetAggregates(NodeID(i))
	}
}

// sizeTo resizes the parallel per-node slices to n entries, reusing backing
// arrays (and any edge maps they still hold) when capacity allows. Entries
// revealed by regrowth carry stale values: CloneInto overwrites the full
// index range afterwards, and emptyTo cleans the revealed ids.
func (g *Graph) sizeTo(n int) {
	g.out = resize(g.out, n)
	g.in = resize(g.in, n)
	g.alive = resize(g.alive, n)
	g.inSum = resize(g.inSum, n)
	g.inBig = resize(g.inBig, n)
	g.bigIn = resize(g.bigIn, n)
	g.outBig = resize(g.outBig, n)
}

func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]E, n)
	copy(ns, s)
	return ns
}

// CheckOwnership verifies the ownership-graph invariant: for every node the
// incoming labels sum to at most 1 (within rounding slack). It returns the
// first violating node, or None. The sum is recomputed from the adjacency
// rather than read from the cache, since this is a validation pass.
func (g *Graph) CheckOwnership() (NodeID, error) {
	for i := range g.alive {
		v := NodeID(i)
		if !g.alive[i] {
			continue
		}
		var s float64
		for _, w := range g.in[v] {
			s += w
		}
		if s > 1+sumSlack {
			return v, fmt.Errorf("graph: node %d is owned %g > 1", v, s)
		}
	}
	return None, nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d cap=%d}", g.nAlive, g.nEdges, len(g.alive))
}
