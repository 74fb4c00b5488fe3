package control

import (
	"ccp/internal/graph"
)

// CoalitionControlledSet generalizes the controlled set to a coalition of
// shareholders acting in concert: the smallest set containing the seeds and
// closed under "the coalition's members jointly own more than half". This is
// the control-like measure behind concerted-action analysis (e.g. families
// or funds coordinating votes), one of the paper's isomorphic scenarios.
//
// Seeds that are not live nodes are ignored; the result contains the live
// seeds.
func CoalitionControlledSet(g *graph.Graph, seeds []graph.NodeID) graph.NodeSet {
	return expand(g, seeds, nil)
}

// CoalitionControls reports whether the coalition jointly controls t.
func CoalitionControls(g *graph.Graph, seeds []graph.NodeID, t graph.NodeID) bool {
	for _, s := range seeds {
		if s == t {
			return true
		}
	}
	return CoalitionControlledSet(g, seeds).Has(t)
}

// OwnershipViaControl returns the fraction of t's equity that s commands:
// the summed direct stakes in t held by s and by every company s controls.
// Unlike the boolean control relation, this measures *how much* of t the
// controller can vote — the quantity behind the paper's collateral
// eligibility and shock-propagation use cases. The result is in [0, 1] and
// exceeds 0.5 exactly when s controls t (or trivially when s == t, where it
// returns 1).
func OwnershipViaControl(g *graph.Graph, s, t graph.NodeID) float64 {
	if s == t {
		return 1
	}
	if !g.Alive(s) || !g.Alive(t) {
		return 0
	}
	var sum float64
	for holder := range ControlledSet(g, s) {
		if holder == t {
			continue // t's own stake in itself cannot exist (no self loops)
		}
		if w, ok := g.Label(holder, t); ok {
			sum += w
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
