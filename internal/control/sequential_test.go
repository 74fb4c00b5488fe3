package control

import (
	"fmt"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// This file holds the literal Section V algorithm: rules applied one node at
// a time, the termination conditions checked after every application. The
// library decides control with CBE and the frontier Reducer; the tests keep
// this reduction as an oracle that shares none of the Reducer's batch code.

// ApplyR12 applies reduction rule R1/R2 to v: v and all its edges are
// removed. The caller is responsible for having checked that v ∈ C1 ∪ C2 and
// v is not excluded.
func ApplyR12(g *graph.Graph, v graph.NodeID) {
	g.RemoveNode(v)
}

// ApplyR3 applies reduction rule R3 to the directly-controlled node v:
// v and its incoming edges are removed and its outgoing edges are
// transferred to its direct controller w_dc, merging labels of parallel
// edges and dropping self loops. It returns an error if v has no direct
// controller.
func ApplyR3(g *graph.Graph, v graph.NodeID) error {
	wdc := g.DirectController(v)
	if wdc == graph.None {
		return fmt.Errorf("control: R3 on %d, which has no direct controller", v)
	}
	type transfer struct {
		to graph.NodeID
		w  float64
	}
	var outs []transfer
	g.EachOut(v, func(u graph.NodeID, w float64) {
		outs = append(outs, transfer{u, w})
	})
	g.RemoveNode(v)
	for _, tr := range outs {
		if tr.to == wdc {
			continue // R3 excludes self loops
		}
		if err := g.MergeEdge(wdc, tr.to, tr.w); err != nil {
			return err
		}
	}
	return nil
}

// SequentialReduction exhaustively applies R1, R2 and R3 to g in place,
// never touching nodes of the exclusion set X, and checking the termination
// conditions after every rule application: the centralized algorithm of
// Section V.
//
// It returns the decided answer (or Unknown) and rule-application counts.
func SequentialReduction(g *graph.Graph, q Query, x graph.NodeSet, trust TerminationTrust) (Answer, Stats) {
	var st Stats
	if ans := CheckTermination(g, q, trust); ans != Unknown {
		return ans, st
	}
	for {
		applied := false
		done := false
		var ans Answer
		g.EachNode(func(v graph.NodeID) {
			if done {
				return
			}
			switch g.ClassOf(v, x.Has(v)) {
			case graph.C1, graph.C2:
				ApplyR12(g, v)
				st.Removed++
				applied = true
			case graph.C3:
				if err := ApplyR3(g, v); err == nil {
					st.Contracted++
					applied = true
				}
			default:
				return
			}
			if a := CheckTermination(g, q, trust); a != Unknown {
				ans, done = a, true
			}
		})
		st.Iterations++
		if done {
			return ans, st
		}
		if !applied {
			return CheckTermination(g, q, trust), st
		}
	}
}

func BenchmarkSequentialReduction(b *testing.B) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 10_000, AvgOutDegree: 2, Seed: 7})
	q := Query{S: 0, T: graph.NodeID(g.Cap() - 1)}
	x := graph.NewNodeSet(q.S, q.T)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := g.Clone()
		b.StartTimer()
		SequentialReduction(clone, q, x, FullTrust)
	}
}
