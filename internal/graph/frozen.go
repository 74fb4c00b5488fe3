package graph

// Frozen is an immutable compressed-sparse-row snapshot of a Graph's
// out-edges, optimized for serving many read-only control queries: the
// closure walks contiguous successor arrays instead of hash maps. Freeze
// once, query often — the shape of the paper's production workload.
type Frozen struct {
	outOffs []int32
	outDst  []NodeID
	outW    []float64
	alive   []bool
	nodes   int
}

// Freeze builds an immutable snapshot of g. Later mutations of g do not
// affect the snapshot.
func Freeze(g *Graph) *Frozen {
	n := g.Cap()
	m := g.NumEdges()
	f := &Frozen{
		outOffs: make([]int32, n+1),
		outDst:  make([]NodeID, 0, m),
		outW:    make([]float64, 0, m),
		alive:   make([]bool, n),
		nodes:   g.NumNodes(),
	}
	for i := 0; i < n; i++ {
		v := NodeID(i)
		f.alive[i] = g.Alive(v)
		f.outOffs[i] = int32(len(f.outDst))
		g.EachOut(v, func(u NodeID, w float64) {
			f.outDst = append(f.outDst, u)
			f.outW = append(f.outW, w)
		})
	}
	f.outOffs[n] = int32(len(f.outDst))
	return f
}

// Cap returns the id-space size.
func (f *Frozen) Cap() int { return len(f.alive) }

// NumNodes returns the number of live nodes.
func (f *Frozen) NumNodes() int { return f.nodes }

// NumEdges returns the number of edges.
func (f *Frozen) NumEdges() int { return len(f.outDst) }

// Alive reports whether v is a live node.
func (f *Frozen) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(f.alive) && f.alive[v]
}

// EachOut calls fn for every outgoing edge of v.
func (f *Frozen) EachOut(v NodeID, fn func(u NodeID, w float64)) {
	if !f.Alive(v) {
		return
	}
	for i := f.outOffs[v]; i < f.outOffs[v+1]; i++ {
		fn(f.outDst[i], f.outW[i])
	}
}

// Ownership is the read-only view the closure solvers need; both *Graph and
// *Frozen satisfy it.
type Ownership interface {
	Alive(NodeID) bool
	EachOut(NodeID, func(NodeID, float64))
}

var (
	_ Ownership = (*Graph)(nil)
	_ Ownership = (*Frozen)(nil)
)
