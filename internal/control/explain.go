package control

import (
	"sort"

	"ccp/internal/graph"
)

// WitnessStep records how one company entered the controlled set of the
// source: the stakes held by already-controlled companies that jointly
// exceed half of its equity.
type WitnessStep struct {
	// Company is the company being brought under control.
	Company graph.NodeID
	// Stakes are the contributing shareholdings; every holder is the source
	// itself or a company of an earlier step.
	Stakes []graph.Edge
	// Total is the summed fraction, strictly above 0.5.
	Total float64
}

// Explain answers q_c(s, t) and, when true, returns a witness: a sequence
// of steps, each justified entirely by s and earlier steps, ending with t.
// Supervisors use such chains as the evidence trail behind a control
// decision. The returned steps are pruned to those t actually depends on.
func Explain(g *graph.Graph, q Query) ([]WitnessStep, bool) {
	if q.S == q.T {
		return nil, true
	}
	if !g.Alive(q.S) || !g.Alive(q.T) {
		return nil, false
	}

	// Forward closure, recording every counted stake and the order in which
	// companies came under control.
	var stakes []graph.Edge
	var order []graph.NodeID
	expand(g, q.S, func(y, z graph.NodeID, w float64, took bool) bool {
		stakes = append(stakes, graph.Edge{From: y, To: z, Weight: w})
		if took {
			order = append(order, z)
		}
		return !took || z != q.T
	})
	if len(order) == 0 || order[len(order)-1] != q.T {
		return nil, false
	}

	// A controlled company's step is every stake counted toward it: the
	// closure counts none after it enters, and summing them in counting
	// order reproduces the total it compared.
	steps := make([]WitnessStep, len(order))
	at := make(map[graph.NodeID]int, len(order))
	for i, v := range order {
		steps[i].Company = v
		at[v] = i
	}
	for _, e := range stakes {
		if i, ok := at[e.To]; ok {
			steps[i].Stakes = append(steps[i].Stakes, e)
			steps[i].Total += e.Weight
		}
	}

	// Backward pruning: keep only the steps t transitively depends on.
	needed := graph.NewNodeSet(q.T)
	work := []graph.NodeID{q.T}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range steps[at[v]].Stakes {
			if e.From == q.S || needed.Has(e.From) {
				continue
			}
			needed.Add(e.From)
			work = append(work, e.From)
		}
	}
	var out []WitnessStep
	for _, st := range steps {
		if needed.Has(st.Company) {
			out = append(out, st)
		}
	}
	// Deterministic stake order inside each step.
	for i := range out {
		sort.Slice(out[i].Stakes, func(a, b int) bool {
			return out[i].Stakes[a].From < out[i].Stakes[b].From
		})
	}
	return out, true
}
