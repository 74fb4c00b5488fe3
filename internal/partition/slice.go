package partition

import (
	"math/bits"
	"slices"

	"ccp/internal/graph"
)

// Reach is the query-independent half of a partition's slice (see Slice):
// R(V^in), the nodes of Local reachable from an in-node; C(V^virt), the nodes
// of Local that reach a virtual node; and their intersection, the core.
// BuildReach computes them from scratch, and RepairReach keeps them equal to
// that after each stake record the partition applies.
type Reach struct {
	fwd, bwd bitset         // R(V^in) and C(V^virt), over Local's id space
	core     []graph.NodeID // R(V^in) ∩ C(V^virt), ascending
	queue    []graph.NodeID
	cut      []graph.NodeID // the nodes a removal's repair cleared
}

// BuildReach fills r with p's reachability sets, reusing r's memory.
func (p *Partition) BuildReach(r *Reach) {
	g := p.Local
	r.fwd = r.fwd.reset(g.Cap())
	r.bwd = r.bwd.reset(g.Cap())
	r.queue = flood(g, r.queue, p.InNodes, r.fwd, false)
	r.queue = flood(g, r.queue, p.Virtual, r.bwd, true)
	r.intersect()
}

// RepairReach brings r, p's sets as they stood before p applied the stake
// record (owner, owned, remove), up to p as it stands after it: r then
// equals what BuildReach would build. Call it after every ApplyStake that
// reports Changed, in order.
//
// An added edge or boundary node only grows the sets, by a flood from its
// end that stops at marked nodes. A removal that can cut a set (x is v on
// the forward side, u on the backward side) clears x's closure inside the
// set, then floods again from every cleared node that is a seed or has a
// neighbour still marked: every node that leaves the set lies in that
// closure, and every node outside it keeps its path. Either way a repair
// visits the nodes it changes or clears at most twice, with their edges,
// and then recomputes the core from the bitsets.
func (p *Partition) RepairReach(r *Reach, owner, owned graph.NodeID, remove bool) {
	g := p.Local
	r.fwd = r.fwd.grow(g.Cap())
	r.bwd = r.bwd.grow(g.Cap())
	u, v := owner, owned
	switch {
	case p.Members.Has(u) && !remove: // the owner's home takes the stake
		if p.Virtual.Has(v) && !r.bwd.has(v) {
			r.extend(g, v, r.bwd, true)
		}
		if r.fwd.has(u) && !r.fwd.has(v) {
			r.extend(g, v, r.fwd, false)
		}
		if r.bwd.has(v) && !r.bwd.has(u) {
			r.extend(g, u, r.bwd, true)
		}
	case p.Members.Has(u): // the owner's home divests it
		if r.fwd.has(u) && r.fwd.has(v) && !p.InNodes.Has(v) {
			r.shrink(g, v, r.fwd, p.InNodes, false)
		}
		if r.bwd.has(u) && r.bwd.has(v) {
			if !g.Alive(v) {
				r.bwd.clear(v) // its stub went with its last in-edge
			}
			r.shrink(g, u, r.bwd, p.Virtual, true)
		}
	case !remove: // the owned company's home records a foreign owner
		if p.InNodes.Has(v) && !r.fwd.has(v) {
			r.extend(g, v, r.fwd, false)
		}
	case r.fwd.has(v) && !p.InNodes.Has(v): // ... and drops its last one
		r.shrink(g, v, r.fwd, p.InNodes, false)
	}
	r.intersect()
}

// Equal reports whether r and o hold the same three sets.
func (r *Reach) Equal(o *Reach) bool {
	return r.fwd.equal(o.fwd) && r.bwd.equal(o.bwd) && slices.Equal(r.core, o.core)
}

// extend marks in seen x and everything reachable from it, along out-edges,
// or along in-edges when back is set.
func (r *Reach) extend(g *graph.Graph, x graph.NodeID, seen bitset, back bool) {
	if g.Alive(x) && !seen.has(x) {
		seen.set(x)
		r.queue = spread(g, append(r.queue[:0], x), seen, back)
	}
}

// shrink repairs seen after a removal that may have cut x, a node of seen,
// off from its seeds: it clears x's closure inside seen, along out-edges,
// or along in-edges when back is set, then floods seen again from every
// cleared node that is a live seed or has a neighbour still in seen on the
// seeds' side. The cleared nodes are taken in the order they were cleared,
// nearest x first, and each flood runs at once: a node it marks again is
// not looked at, so the neighbours of a holding company a flood reaches
// are never scanned.
func (r *Reach) shrink(g *graph.Graph, x graph.NodeID, seen bitset, seeds graph.NodeSet, back bool) {
	seen.clear(x)
	cut := append(r.cut[:0], x)
	for i := 0; i < len(cut); i++ {
		step(g, cut[i], back, func(w graph.NodeID, _ float64) {
			if seen.has(w) {
				seen.clear(w)
				cut = append(cut, w)
			}
		})
	}
	r.cut = cut
	for _, c := range cut {
		if seen.has(c) {
			continue // marked by an earlier node's flood
		}
		kept := g.Alive(c) && seeds.Has(c)
		if !kept {
			step(g, c, !back, func(w graph.NodeID, _ float64) { kept = kept || seen.has(w) })
		}
		if kept {
			seen.set(c)
			r.queue = spread(g, append(r.queue[:0], c), seen, back)
		}
	}
}

// intersect recomputes the core from the two bitsets.
func (r *Reach) intersect() {
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
	for v := range from {
		if g.Alive(v) && !seen.has(v) {
			seen.set(v)
			queue = append(queue, v)
		}
	}
	return spread(g, queue, seen, back)
}

// spread marks in seen every node of g reachable from queue's nodes, which
// seen holds already, along out-edges, or along in-edges when back is set.
// It returns queue emptied, for reuse.
func spread(g *graph.Graph, queue []graph.NodeID, seen bitset, back bool) []graph.NodeID {
	for i := 0; i < len(queue); i++ {
		step(g, queue[i], back, func(u graph.NodeID, _ float64) {
			if !seen.has(u) {
				seen.set(u)
				queue = append(queue, u)
			}
		})
	}
	return queue[:0]
}

// step calls fn for every out-edge of v, or every in-edge when back is set.
func step(g *graph.Graph, v graph.NodeID, back bool, fn func(u graph.NodeID, w float64)) {
	if back {
		g.EachIn(v, fn)
	} else {
		g.EachOut(v, fn)
	}
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
// empty unless s, t are live in Local. r must be p's Reach, current for p
// as it stands (see RepairReach). The core comes first, then the nodes the
// query's own walks add, with no node twice. The result aliases sc and is
// valid until its next use.
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

// grow returns b extended to hold n ids, the new ones clear.
func (b bitset) grow(n int) bitset {
	if words := (n + 63) >> 6; words > len(b) {
		return append(b, make(bitset, words-len(b))...)
	}
	return b
}

// equal reports whether b and c hold the same ids, whatever their lengths.
func (b bitset) equal(c bitset) bool {
	if len(b) > len(c) {
		b, c = c, b
	}
	return slices.Equal(b, c[:len(b)]) && !slices.ContainsFunc(c[len(b):], func(w uint64) bool { return w != 0 })
}

func (b bitset) has(v graph.NodeID) bool { return int(v>>6) < len(b) && b[v>>6]&(1<<(v&63)) != 0 }
func (b bitset) set(v graph.NodeID)      { b[v>>6] |= 1 << (v & 63) }
func (b bitset) clear(v graph.NodeID)    { b[v>>6] &^= 1 << (v & 63) }
