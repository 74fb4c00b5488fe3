// Package control implements the company control problem (CCP) solvers of
// the paper: the Control-by-Expansion closure (Algorithm 1), which every
// control decision, controlled set and explanation here runs on; a naive
// serial fixpoint used as a performance yardstick; and the parallel
// reduction built from node classes C1–C4, reduction rules R1–R3 and
// termination conditions T1–T3.
package control

import (
	"fmt"

	"ccp/internal/graph"
)

// Query is the company control query q_c(s, t): does s control t?
type Query struct {
	S, T graph.NodeID
}

// String renders the query in the paper's notation.
func (q Query) String() string { return fmt.Sprintf("q_c(%d,%d)", q.S, q.T) }

// Answer is a tri-state query outcome: in the distributed setting a site may
// be unable to decide the query from its partition alone.
type Answer int8

const (
	// Unknown means the (partial) evaluation could not decide the query.
	Unknown Answer = iota
	// False means s does not control t.
	False
	// True means s controls t.
	True
)

// Bool converts a decided answer; it panics on Unknown.
func (a Answer) Bool() bool {
	switch a {
	case True:
		return true
	case False:
		return false
	}
	panic("control: Bool of Unknown answer")
}

// String implements fmt.Stringer.
func (a Answer) String() string {
	switch a {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// TerminationTrust states which early-termination conditions are sound for
// the graph at hand. In centralized evaluation all conditions hold. In a
// partial (per-partition) evaluation:
//
//   - T1 (s directly controls nothing ⇒ false) is sound only if s is a local
//     node, because then all of s's outgoing edges — including cross edges —
//     are locally visible.
//   - T2 (t cannot be controlled ⇒ false) is sound only if t is a local node
//     with no incoming cross edges from other partitions (t not an in-node),
//     because incoming cross edges are stored at the remote partition.
//   - T3 (s directly controls t ⇒ true) is sound whenever the edge is
//     locally visible; a positive fact cannot be retracted by remote data.
type TerminationTrust struct {
	T1, T2 bool
}

// FullTrust is the centralized setting: every condition applies.
var FullTrust = TerminationTrust{T1: true, T2: true}

// CheckTermination evaluates the termination conditions T1–T3 of Section V-C
// on g and returns a decided Answer, or Unknown if none fires.
func CheckTermination(g *graph.Graph, q Query, trust TerminationTrust) Answer {
	if q.S == q.T {
		// Control(x, x) holds by rule (1) of the logic program.
		return True
	}
	// T3: s directly controls t.
	if w, ok := g.Label(q.S, q.T); ok && graph.ExceedsControl(w) {
		return True
	}
	// T1: the source node does not directly control any node. O(1) via the
	// cached count of controlling out-labels.
	if trust.T1 {
		if !g.Alive(q.S) {
			return False
		}
		if !g.HasControllingOut(q.S) {
			return False
		}
	}
	// T2: the target node cannot be controlled by any other node.
	if trust.T2 {
		if !g.Alive(q.T) {
			return False
		}
		if g.InDegree(q.T) == 0 || !graph.ExceedsControl(g.InSum(q.T)) {
			return False
		}
	}
	return Unknown
}
