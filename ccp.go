// Package ccp solves the Company Control Problem over company shareholding
// graphs: deciding whether a company s controls a company t, directly (by
// owning more than half of t's shares) or indirectly (by controlling a set
// of companies that jointly own more than half of t).
//
// The package implements the algorithms of "Distributed Company Control in
// Company Shareholding Graphs" (ICDE 2021): the Control-by-Expansion
// baseline, graph reduction through the node classes C1–C4 and rules R1–R3,
// an intra-site parallel reduction, and a distributed coordinator/worker
// evaluation with pre-caching of query-independent partial answers.
//
// Quick start:
//
//	g := ccp.NewGraph(3)
//	g.AddEdge(0, 1, 0.6) // company 0 owns 60% of company 1
//	g.AddEdge(1, 2, 0.6)
//	ccp.Controls(g, 0, 2) // true: control is transitive through majorities
package ccp

import (
	"context"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/stats"
)

// Graph is a mutable company shareholding graph. Nodes are companies,
// identified by dense ids; a directed edge (u, v) with label w means u holds
// the fraction w of v's equity. See the graph methods for construction,
// inspection and (de)serialization.
type Graph = graph.Graph

// NodeID identifies a company in a Graph.
type NodeID = graph.NodeID

// Edge is one shareholding relation, used for bulk construction.
type Edge = graph.Edge

// NodeSet is a set of company ids.
type NodeSet = graph.NodeSet

// Query is the company control query q_c(s, t).
type Query = control.Query

// None is the null company id.
const None = graph.None

// NewGraph returns an ownership graph with n companies and no shareholdings.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromEdges builds a graph over companies 0..n-1 from a shareholding list,
// merging parallel entries by summing fractions.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// NewNodeSet builds a set from company ids.
func NewNodeSet(ids ...NodeID) NodeSet { return graph.NewNodeSet(ids...) }

// Controls reports whether company s controls company t in g, using the
// linear-time Control-by-Expansion closure (Algorithm 1 of the paper). This
// is the fastest way to answer a single centralized query.
func Controls(g *Graph, s, t NodeID) bool {
	return control.CBE(g, Query{S: s, T: t})
}

// ControlledSet returns every company controlled by s (including s): the
// full Control(s, ·) relation of the paper's logic program.
func ControlledSet(g *Graph, s NodeID) NodeSet {
	return control.ControlledSet(g, s)
}

// ReduceResult reports the outcome of a reduction-based evaluation.
type ReduceResult struct {
	// Controls is the answer to q_c(s, t); valid only when Decided.
	Controls bool
	// Decided reports whether the reduction determined the answer. It is
	// always true when the exclusion set was just {s, t}.
	Decided bool
	// Reduced is the control-equivalent reduced graph (the partial answer
	// of the distributed setting).
	Reduced *Graph
	// Removed and Contracted count nodes eliminated by rules R1/R2 and R3.
	Removed, Contracted int
	// Rounds counts parallel mark/act rounds.
	Rounds int
}

// Reduce answers q_c(s, t) by parallel graph reduction (Section VI),
// preserving the companies in keep (in addition to s and t) and using the
// given worker parallelism (0 = GOMAXPROCS). g is not modified.
//
// With keep empty this is the centralized parallel algorithm and the result
// is always decided. With keep holding a partition's boundary nodes it is
// the site-local partial evaluation of the distributed algorithm, and the
// reduced graph is the partial answer. Early termination may decide the
// answer before the graph is fully reduced.
//
// Cancelling ctx (or letting its deadline expire) stops the reduction at the
// next rule round and returns the context error; the partially reduced
// result is discarded.
func Reduce(ctx context.Context, g *Graph, s, t NodeID, keep NodeSet, workers int) (ReduceResult, error) {
	x := NewNodeSet(s, t)
	for v := range keep {
		x.Add(v)
	}
	clone := g.Clone()
	trust := control.FullTrust
	if len(keep) > 0 {
		// Boundary nodes mean incomplete local knowledge; only the sound
		// conditions may fire.
		trust = control.TerminationTrust{}
	}
	res, err := control.ParallelReduction(ctx, clone, Query{S: s, T: t}, x, control.Options{
		Workers: workers,
		Trust:   trust,
	})
	if err != nil {
		return ReduceResult{}, err
	}
	return ReduceResult{
		Controls:   res.Ans == control.True,
		Decided:    res.Ans != control.Unknown,
		Reduced:    clone,
		Removed:    res.Stats.Removed,
		Contracted: res.Stats.Contracted,
		Rounds:     res.Stats.Iterations,
	}, nil
}

// ControlGroup is a head company and every company whose chain of majority
// shareholders ends at it.
type ControlGroup = control.Group

// ControlGroups clusters companies by ultimate controller, returning the
// multi-member groups largest first — the group-register data product.
func ControlGroups(g *Graph) []ControlGroup { return control.Groups(g) }

// WitnessStep is one step of a control explanation: a company brought under
// control by stakes held by the source and previously explained companies.
type WitnessStep = control.WitnessStep

// Explain answers q_c(s, t) and, when control holds, returns the evidence
// trail: the chain of companies s takes over, each step justified by stakes
// of s and earlier steps jointly exceeding 50%. Supervisors and analysts use
// it to audit a control decision rather than trust a boolean.
func Explain(g *Graph, s, t NodeID) ([]WitnessStep, bool) {
	return control.Explain(g, Query{S: s, T: t})
}

// GraphSummary aggregates the headline statistics of an ownership graph
// (Section II of the paper).
type GraphSummary = stats.Summary

// Summarize computes nodes, edges, degree, SCC/WCC structure and the
// power-law exponent of the out-degree tail of g.
func Summarize(g *Graph) GraphSummary { return stats.Summarize(g) }

// GraphReport is the extended characterization: Summary plus degree and
// component distributions and top owners. It renders itself via WriteTo.
type GraphReport = stats.Report

// Report computes the full Section II-style characterization of g.
func Report(g *Graph) *GraphReport { return stats.NewReport(g) }
