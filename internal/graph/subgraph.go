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
	sub := newShell(len(g.alive))
	for v := range keep {
		if g.Alive(v) {
			sub.alive[v] = true
			sub.nAlive++
		}
	}
	for v := range keep {
		if !g.Alive(v) {
			continue
		}
		for u, w := range g.out[v] {
			if sub.Alive(u) {
				sub.setEdge(v, u, w)
			}
		}
	}
	return sub
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
