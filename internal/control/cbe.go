package control

import (
	"ccp/internal/graph"
)

// CBE answers q_c(s, t) with the Control-by-Expansion algorithm
// (Algorithm 1 of the paper), implemented with a worklist so that each node's
// accumulated controlled ownership is updated incrementally: O(n + m) instead
// of the paper's O(n²) bound for the literal formulation. The computed
// relation is identical. g is any read-only ownership view — a *graph.Graph
// or a graph.Frozen snapshot, which serves repeated queries from contiguous
// arrays instead of hash maps.
func CBE(g graph.Ownership, q Query) bool {
	if q.S == q.T {
		return true
	}
	if !g.Alive(q.S) || !g.Alive(q.T) {
		return false
	}
	found := false
	expand(g, q.S, func(_, z graph.NodeID, _ float64, took bool) bool {
		found = took && z == q.T
		return !found
	})
	return found
}

// ControlledSet returns the set of all companies controlled by s (including
// s itself), i.e. the full Control(s, ·) relation of the logic program.
func ControlledSet(g graph.Ownership, s graph.NodeID) graph.NodeSet {
	return expand(g, s, nil)
}

// expand is Algorithm 1's closure — the one worklist behind every control
// decision and explanation in this package. It returns the smallest set
// holding s (when live) and every company in which already controlled
// companies jointly hold more than half. hook, when non-nil, sees every
// stake y→z of weight w as it is counted toward z, with took reporting
// whether that stake brought z into the set; returning false stops the
// closure.
//
// acc[v] is the monotonic sum msum of the ownership of v held by already
// controlled companies, each counted once: a company y contributes its label
// exactly once, when y itself enters the controlled set.
func expand(g graph.Ownership, s graph.NodeID, hook func(y, z graph.NodeID, w float64, took bool) bool) graph.NodeSet {
	controlled := graph.NewNodeSet()
	var queue []graph.NodeID
	if g.Alive(s) {
		controlled.Add(s)
		queue = append(queue, s)
	}
	acc := make(map[graph.NodeID]float64)
	var y graph.NodeID
	stop := false
	// One closure for the whole walk: built per y, it would be a heap
	// allocation per controlled company.
	count := func(z graph.NodeID, w float64) {
		if stop || controlled.Has(z) {
			return
		}
		sum := acc[z] + w
		acc[z] = sum
		took := graph.ExceedsControl(sum)
		if took {
			controlled.Add(z)
			queue = append(queue, z)
		}
		if hook != nil && !hook(y, z, w, took) {
			stop = true
		}
	}
	for len(queue) > 0 && !stop {
		y = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		g.EachOut(y, count)
	}
	return controlled
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
