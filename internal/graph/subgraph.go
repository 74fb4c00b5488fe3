package graph

// NodeSet is a set of node ids.
type NodeSet map[NodeID]struct{}

// NewNodeSet builds a set from ids.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set.
func (s NodeSet) Add(id NodeID) { s[id] = struct{}{} }

// Has reports membership of id.
func (s NodeSet) Has(id NodeID) bool {
	_, ok := s[id]
	return ok
}

// AddAll inserts every element of t into s.
func (s NodeSet) AddAll(t NodeSet) {
	for id := range t {
		s.Add(id)
	}
}

// Induced returns the subgraph of g induced by keep: the nodes of keep that
// are live in g and every edge of g with both endpoints in keep. Node ids are
// preserved; the result has the same id capacity as g.
func (g *Graph) Induced(keep NodeSet) *Graph {
	ids := make([]NodeID, 0, len(keep))
	for v := range keep {
		ids = append(ids, v)
	}
	return g.InducedInto(nil, ids)
}

// InducedInto builds into dst the subgraph of g induced by keep: the nodes
// keep lists that are live in g and every edge of g between two of them. Ids
// and the id capacity are preserved, and keep may repeat a node. dst's
// slices and edge maps are reused as CloneInto reuses them, and emptying dst
// visits only the live nodes it held and the ids a growth reveals (see
// emptyTo). A pooled destination reduced between two calls therefore
// allocates nothing once warm. A nil dst, or g itself, gets a fresh graph.
func (g *Graph) InducedInto(dst *Graph, keep []NodeID) *Graph {
	if dst == nil || dst == g {
		dst = newShell(len(g.alive))
	} else {
		dst.emptyTo(len(g.alive))
	}
	for _, v := range keep {
		if g.Alive(v) && !dst.alive[v] {
			dst.alive[v] = true
			dst.nAlive++
		}
	}
	for _, v := range keep {
		// Only v's own pass adds edges out of v, so a non-empty table
		// marks a repeat.
		if !dst.Alive(v) || len(dst.out[v]) != 0 {
			continue
		}
		for u, w := range g.out[v] {
			if dst.alive[u] {
				dst.setEdge(v, u, w)
			}
		}
	}
	return dst
}

// Merge adds every live node and edge of other into g, extending the id
// space if needed. Edges already present in g keep their label: merging
// reduced partitions never double-counts an ownership relation, because
// every original edge lives in exactly one partition and reduction only
// moves labels between edges of the same partition.
func (g *Graph) Merge(other *Graph) {
	other.EachNode(func(v NodeID) { g.Revive(v) })
	other.EachNode(func(v NodeID) {
		for u, w := range other.out[v] {
			if _, exists := g.out[v][u]; exists {
				continue
			}
			g.setEdge(v, u, w)
		}
	})
}
