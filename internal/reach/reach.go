// Package reach implements distributed reachability by partial evaluation —
// the technique of Fan, Wang and Wu (VLDB 2012) that the paper's
// distribution scheme builds on (Section IX). It exists as an executable
// contrast: reachability is NLOGSPACE-complete and each site's partial
// answer is just the reachability relation between its boundary nodes,
// whereas company control is P-complete and partial answers must be whole
// reduced subgraphs.
package reach

import (
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// PartialAnswer is one site's contribution: the reachability relation
// restricted to the nodes the coordinator cares about — the partition's
// boundary nodes plus, when stored here, the query endpoints. Unlike company
// control, this is a set of pairs, not a subgraph, and its size is bounded
// by the square of the boundary.
type PartialAnswer struct {
	SiteID int
	// Pairs lists (from, to) with `to` locally reachable from `from`.
	Pairs [][2]graph.NodeID
	// HasS/HasT report whether the site stores the endpoints.
	HasS, HasT bool
}

// Evaluate computes the partial answer of one partition for query (s, t):
// local reachability from every interesting source (boundary ∪ {s}) to
// every interesting sink (boundary ∪ {t}).
func Evaluate(p *partition.Partition, s, t graph.NodeID) *PartialAnswer {
	pa := &PartialAnswer{
		SiteID: p.ID,
		HasS:   p.Members.Has(s),
		HasT:   p.Members.Has(t),
	}
	sources := graph.NewNodeSet()
	sources.AddAll(p.InNodes)
	if pa.HasS {
		sources.Add(s)
	}
	sinks := graph.NewNodeSet()
	sinks.AddAll(p.Virtual)
	if pa.HasT {
		sinks.Add(t)
	}
	// Also: a virtual node is an edge target only; reaching it locally
	// means one hop, already covered because virtual nodes appear as sinks.
	for src := range sources {
		if !p.Local.Alive(src) {
			continue
		}
		seen := graph.NewNodeSet(src)
		queue := []graph.NodeID{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			p.Local.EachOut(v, func(u graph.NodeID, w float64) {
				if seen.Has(u) {
					return
				}
				seen.Add(u)
				queue = append(queue, u)
			})
		}
		for dst := range sinks {
			if dst != src && seen.Has(dst) {
				pa.Pairs = append(pa.Pairs, [2]graph.NodeID{src, dst})
			}
		}
	}
	return pa
}

// Assemble merges the partial answers into the dependency graph of
// Fan et al. and answers the query on it: nodes are boundary nodes and the
// endpoints, edges are the locally derived reachability pairs.
func Assemble(answers []*PartialAnswer, s, t graph.NodeID) bool {
	if s == t {
		for _, pa := range answers {
			if pa.HasS {
				return true
			}
		}
		return false
	}
	adj := make(map[graph.NodeID][]graph.NodeID)
	hasS := false
	for _, pa := range answers {
		hasS = hasS || pa.HasS
		for _, pr := range pa.Pairs {
			adj[pr[0]] = append(adj[pr[0]], pr[1])
		}
	}
	if !hasS {
		return false
	}
	seen := graph.NewNodeSet(s)
	queue := []graph.NodeID{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if u == t {
				return true
			}
			if !seen.Has(u) {
				seen.Add(u)
				queue = append(queue, u)
			}
		}
	}
	return false
}

// Distributed answers reachability over a partitioning by partial evaluation
// at every site followed by assembly — each site visited exactly once, as in
// Fan et al.
func Distributed(pi *partition.Partitioning, s, t graph.NodeID) bool {
	answers := make([]*PartialAnswer, len(pi.Parts))
	for i, p := range pi.Parts {
		answers[i] = Evaluate(p, s, t)
	}
	return Assemble(answers, s, t)
}
