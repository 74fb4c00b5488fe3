package control

import (
	"ccp/internal/graph"
)

// CBE answers q_c(s, t) with the Control-by-Expansion algorithm
// (Algorithm 1 of the paper), implemented with a worklist so that each node's
// accumulated controlled ownership is updated incrementally: O(n + m) instead
// of the paper's O(n²) bound for the literal formulation. The computed
// relation is identical.
func CBE(g *graph.Graph, q Query) bool { return CBEOn(g, q) }

// CBEOn is CBE over any read-only ownership view — in particular a
// graph.Frozen snapshot, which serves repeated queries from contiguous
// arrays instead of hash maps.
func CBEOn(g graph.Ownership, q Query) bool {
	if q.S == q.T {
		return true
	}
	if !g.Alive(q.S) || !g.Alive(q.T) {
		return false
	}
	found := false
	expand(g, q.S, func(v graph.NodeID) bool {
		if v == q.T {
			found = true
			return false
		}
		return true
	})
	return found
}

// ControlledSet returns the set of all companies controlled by s (including
// s itself), i.e. the full Control(s, ·) relation of the logic program.
func ControlledSet(g *graph.Graph, s graph.NodeID) graph.NodeSet {
	return ControlledSetOn(g, s)
}

// ControlledSetOn is ControlledSet over any read-only ownership view.
func ControlledSetOn(g graph.Ownership, s graph.NodeID) graph.NodeSet {
	set := graph.NewNodeSet()
	if !g.Alive(s) {
		return set
	}
	set.Add(s)
	expand(g, s, func(v graph.NodeID) bool {
		set.Add(v)
		return true
	})
	return set
}

// expand runs the CBE closure from s, invoking visit for every newly
// controlled node (s excluded). visit returns false to stop early.
//
// acc[v] is the monotonic sum msum of the ownership of v held by already
// controlled companies, each counted once: a company y contributes its label
// exactly once, when y itself enters the controlled set.
func expand(g graph.Ownership, s graph.NodeID, visit func(graph.NodeID) bool) {
	acc := make(map[graph.NodeID]float64)
	controlled := graph.NewNodeSet(s)
	queue := []graph.NodeID{s}
	for len(queue) > 0 {
		y := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		stop := false
		g.EachOut(y, func(z graph.NodeID, w float64) {
			if stop || controlled.Has(z) {
				return
			}
			acc[z] += w
			if graph.ExceedsControl(acc[z]) {
				controlled.Add(z)
				queue = append(queue, z)
				if !visit(z) {
					stop = true
				}
			}
		})
		if stop {
			return
		}
	}
}

// SerialBaselineSet computes the controlled set of s with the literal
// formulation of Algorithm 1: "while there is some u ∉ Controlled whose
// controlled ownership exceeds 0.5, add u" — one node per while-iteration,
// rescanning the candidate nodes from scratch each time. This is the
// O(n²)-style sequential program the paper uses as its production
// performance yardstick: its cost grows with |Controlled| · (n + m), which
// on hub sources controlling thousands of companies is orders of magnitude
// slower than the worklist CBE or the parallel reduction.
func SerialBaselineSet(g *graph.Graph, s graph.NodeID) graph.NodeSet {
	controlled := graph.NewNodeSet()
	if !g.Alive(s) {
		return controlled
	}
	controlled.Add(s)
	for {
		added := graph.None
		g.EachNode(func(u graph.NodeID) {
			if added != graph.None || controlled.Has(u) {
				return
			}
			var sum float64
			g.EachIn(u, func(p graph.NodeID, w float64) {
				if controlled.Has(p) {
					sum += w
				}
			})
			if graph.ExceedsControl(sum) {
				added = u
			}
		})
		if added == graph.None {
			return controlled
		}
		controlled.Add(added)
	}
}
