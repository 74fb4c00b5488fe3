package partition

import (
	"math/bits"

	"ccp/internal/graph"
)

// Reach is the query-independent half of a partition's slice (see Slice):
// R(V^in), the nodes of Local reachable from an in-node; C(V^virt), the nodes
// of Local that reach a virtual node; and their intersection, the core. It
// describes the partition as it stood when BuildReach ran, so rebuild it
// whenever the partition changes.
type Reach struct {
	fwd, bwd bitset         // R(V^in) and C(V^virt), over Local's id space
	core     []graph.NodeID // R(V^in) ∩ C(V^virt), ascending
	queue    []graph.NodeID
}

// BuildReach fills r with p's reachability sets, reusing r's memory.
func (p *Partition) BuildReach(r *Reach) {
	g := p.Local
	r.fwd = r.fwd.reset(g.Cap())
	r.bwd = r.bwd.reset(g.Cap())
	r.queue = flood(g, r.queue, p.InNodes, r.fwd, false)
	r.queue = flood(g, r.queue, p.Virtual, r.bwd, true)
	r.core = r.core[:0]
	for i, w := range r.fwd {
		for w &= r.bwd[i]; w != 0; w &= w - 1 {
			r.core = append(r.core, graph.NodeID(i<<6+bits.TrailingZeros64(w)))
		}
	}
}

// flood marks in seen every node of g reachable from the live nodes of from,
// along out-edges, or along in-edges when back is set. It returns queue
// emptied, for reuse.
func flood(g *graph.Graph, queue []graph.NodeID, from graph.NodeSet, seen bitset, back bool) []graph.NodeID {
	queue = queue[:0]
	visit := func(u graph.NodeID, _ float64) {
		if !seen.has(u) {
			seen.set(u)
			queue = append(queue, u)
		}
	}
	for v := range from {
		if g.Alive(v) {
			visit(v, 0)
		}
	}
	for i := 0; i < len(queue); i++ {
		if back {
			g.EachIn(queue[i], visit)
		} else {
			g.EachOut(queue[i], visit)
		}
	}
	return queue[:0]
}

// SliceScratch is Slice's per-query memory: generation-stamped walk marks
// over the id space, the walk queue and the kept list. A warm scratch makes
// Slice allocation-free; pool it.
type SliceScratch struct {
	mark  []uint32 // gen<<markBits | walk flags; an older gen is no mark
	gen   uint32
	queue []graph.NodeID
	keep  []graph.NodeID
}

// The walk flags of SliceScratch.mark.
const (
	markBack = 1 << iota // reached by the walk back from t: in C(t)
	markFwd              // reached by the clipped walk forward from s
	markBits = iota
)

// next starts a new generation of marks over n ids.
func (sc *SliceScratch) next(n int) {
	if cap(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.gen = 0
	}
	sc.mark = sc.mark[:n]
	if sc.gen++; sc.gen >= 1<<(32-markBits) {
		clear(sc.mark[:cap(sc.mark)])
		sc.gen = 1
	}
}

func (sc *SliceScratch) has(v graph.NodeID, f uint32) bool {
	m := sc.mark[v]
	return m>>markBits == sc.gen && m&f != 0
}

func (sc *SliceScratch) set(v graph.NodeID, f uint32) {
	if sc.mark[v]>>markBits != sc.gen {
		sc.mark[v] = sc.gen << markBits
	}
	sc.mark[v] |= f
}

// Slice returns the nodes of Local that lie on some local path from
// {s} ∪ V^in to {t} ∪ V^virt:
//
//	keep = (R(V^in) ∪ R(s)) ∩ (C(V^virt) ∪ C(t))
//
// where R is forward and C backward reachability in Local, and R(s), C(t) are
// empty unless s, t are live in Local. r must be p's Reach, built since p
// last changed. The core comes first, then the nodes the query's own walks
// add, with no node twice. The result aliases sc and is valid until its next
// use.
//
// Two walks do the per-query work. The walk back from t is unclipped, and is
// skipped when t reaches V^virt, since C(t) ⊆ C(V^virt) then. The walk
// forward from s enters only nodes in C(V^virt) ∪ C(t), which is exact: a
// node that cannot reach the target has no successor that can. It is skipped
// when s ∈ R(V^in), since R(s) ⊆ R(V^in) then.
func (p *Partition) Slice(r *Reach, s, t graph.NodeID, sc *SliceScratch) []graph.NodeID {
	g := p.Local
	sc.next(g.Cap())
	q := sc.queue[:0]
	if g.Alive(t) && !r.bwd.has(t) {
		sc.set(t, markBack)
		q = append(q, t)
		for i := 0; i < len(q); i++ {
			g.EachIn(q[i], func(u graph.NodeID, _ float64) {
				if !sc.has(u, markBack) {
					sc.set(u, markBack)
					q = append(q, u)
				}
			})
		}
	}
	back := len(q)
	target := func(u graph.NodeID) bool { return r.bwd.has(u) || sc.has(u, markBack) }
	if g.Alive(s) && !r.fwd.has(s) && target(s) {
		sc.set(s, markFwd)
		q = append(q, s)
		for i := back; i < len(q); i++ {
			g.EachOut(q[i], func(u graph.NodeID, _ float64) {
				if !sc.has(u, markFwd) && target(u) {
					sc.set(u, markFwd)
					q = append(q, u)
				}
			})
		}
	}
	sc.queue = q
	keep := append(sc.keep[:0], r.core...)
	for i, v := range q {
		switch {
		case r.fwd.has(v) && r.bwd.has(v): // in the core already
		case i < back: // in C(t): kept if a source reaches it
			if r.fwd.has(v) || sc.has(v, markFwd) {
				keep = append(keep, v)
			}
		case !sc.has(v, markBack): // forward-walked, and not listed by C(t)
			keep = append(keep, v)
		}
	}
	sc.keep = keep
	return keep
}

// bitset is a set of node ids over a fixed id space.
type bitset []uint64

// reset returns b resized to hold n ids, all clear, reusing b's memory.
func (b bitset) reset(n int) bitset {
	words := (n + 63) >> 6
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

func (b bitset) has(v graph.NodeID) bool { return int(v>>6) < len(b) && b[v>>6]&(1<<(v&63)) != 0 }
func (b bitset) set(v graph.NodeID)      { b[v>>6] |= 1 << (v & 63) }
