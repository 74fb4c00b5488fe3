// Package partition implements the distributed-graph model of Section VII-A:
// a partitioning Π = (P, Gp) of an ownership graph into site-local
// partitions P_i = (V_i ∪ V_i^virt, E_i ∪ E_i^cross, L_i) plus the partition
// graph Gp of cross edges, with the derived boundary sets (virtual nodes and
// in-nodes) that the distributed algorithm must never reduce away.
package partition

import (
	"fmt"
	"maps"

	"ccp/internal/graph"
)

// Partition is one site's share of the distributed graph. Node ids are
// global: Local uses the same id space as the original graph, which lets the
// coordinator merge partial answers without translation.
type Partition struct {
	// ID is the partition index in its Partitioning.
	ID int
	// Local holds the member nodes, the virtual nodes, the edges induced by
	// the members and the outgoing cross edges.
	Local *graph.Graph
	// Members is V_i: the companies stored at this site.
	Members graph.NodeSet
	// Virtual is V_i^virt: foreign companies that members hold stakes in,
	// present only as edge endpoints.
	Virtual graph.NodeSet
	// InNodes is V_i^in: members owned (in part) from other partitions.
	// Their local in-edge knowledge is incomplete. It holds exactly the
	// keys of CrossIn.
	InNodes graph.NodeSet
	// CrossIn maps each in-node to its foreign owners, so that updates
	// maintain InNodes incrementally: a member is an in-node exactly while
	// some company of another partition holds a stake in it.
	CrossIn map[graph.NodeID]graph.NodeSet
}

// StakeResult reports what ApplyStake did to the partition.
type StakeResult struct {
	// Stored is true iff this partition holds the owner or the owned
	// company, so the stake is one of its to apply.
	Stored bool
	// Changed reports that the partition's state actually moved. A stored
	// update can be a no-op — divesting nothing, a merge whose clamped or
	// rounded label equals the old one, an owner already recorded — and
	// then nothing downstream (epoch, caches, WAL) needs to move either.
	Changed bool
}

// ApplyStake applies the half of one stake update this partition holds:
// owner takes (remove=false) the fraction w of owned, merging with any
// existing stake, or divests the stake entirely (remove=true). The owner's
// partition changes the edge. The owned company's partition, when the
// owner lives elsewhere, adds owner to or removes it from owned's foreign
// owners; that half is idempotent. Every other partition returns a zero
// StakeResult.
//
// This is the single mutation path shared by live site updates and durable
// WAL replay, so a replayed record reproduces exactly the state the live
// update produced.
func (p *Partition) ApplyStake(owner, owned graph.NodeID, w float64, remove bool) (StakeResult, error) {
	switch {
	case p.Members.Has(owner):
		changed, err := p.applyEdge(owner, owned, w, remove)
		return StakeResult{Stored: true, Changed: changed}, err
	case p.Members.Has(owned):
		return StakeResult{Stored: true, Changed: p.setForeignOwner(owned, owner, !remove)}, nil
	}
	return StakeResult{}, nil
}

// applyEdge is the owner's half of ApplyStake: it merges or divests the
// edge (owner, owned) and reports whether the edge or its label changed.
// A foreign company's virtual stub goes with its last in-edge, as Split
// never makes one without.
func (p *Partition) applyEdge(owner, owned graph.NodeID, w float64, remove bool) (bool, error) {
	if remove {
		if !p.Local.RemoveEdge(owner, owned) {
			return false, nil
		}
		if p.Virtual.Has(owned) && p.Local.InDegree(owned) == 0 {
			p.Local.RemoveNode(owned)
			delete(p.Virtual, owned)
		}
		return true, nil
	}
	old, existed := p.Local.Label(owner, owned)
	if !p.Members.Has(owned) {
		// The owned company lives elsewhere; ensure its virtual stub.
		p.Local.Revive(owned)
		p.Virtual.Add(owned)
	} else if !p.Local.Alive(owned) {
		return false, fmt.Errorf("partition %d: owned company %d unknown", p.ID, owned)
	}
	if err := p.Local.MergeEdge(owner, owned, w); err != nil {
		return false, fmt.Errorf("partition %d applying stake: %w", p.ID, err)
	}
	nw, _ := p.Local.Label(owner, owned)
	return !existed || nw != old, nil
}

// setForeignOwner adds (add) or removes owner from member v's foreign
// owners, making v an in-node with its first owner and dropping it with its
// last. It reports whether the owner set changed.
func (p *Partition) setForeignOwner(v, owner graph.NodeID, add bool) bool {
	owners := p.CrossIn[v]
	if owners.Has(owner) == add {
		return false
	}
	switch {
	case !add:
		delete(owners, owner)
		if len(owners) == 0 {
			delete(p.CrossIn, v)
			delete(p.InNodes, v)
		}
	case owners == nil:
		if p.CrossIn == nil {
			p.CrossIn = make(map[graph.NodeID]graph.NodeSet)
		}
		p.CrossIn[v] = graph.NewNodeSet(owner)
		p.InNodes.Add(v)
	default:
		owners.Add(owner)
	}
	return true
}

// Snapshot returns a deep copy of the partition — graph and sets —
// that stays valid while the live partition keeps mutating. Taking it costs
// O(nodes + edges) and must not run concurrently with a mutation: a site
// takes it under its read lock, and checkpoint builds serialize the copy
// after the lock is released.
func (p *Partition) Snapshot() *Partition {
	c := &Partition{
		ID:      p.ID,
		Local:   p.Local.Clone(),
		Members: graph.NewNodeSet(),
		Virtual: graph.NewNodeSet(),
		InNodes: graph.NewNodeSet(),
		CrossIn: make(map[graph.NodeID]graph.NodeSet, len(p.CrossIn)),
	}
	c.Members.AddAll(p.Members)
	c.Virtual.AddAll(p.Virtual)
	c.InNodes.AddAll(p.InNodes)
	for v, owners := range p.CrossIn {
		c.CrossIn[v] = maps.Clone(owners)
	}
	return c
}

// Boundary returns V_i^in ∪ V_i^virt — the nodes a partial evaluation must
// keep (the exclusion set of Algorithm 2, minus the query endpoints).
func (p *Partition) Boundary() graph.NodeSet {
	b := graph.NewNodeSet()
	b.AddAll(p.InNodes)
	b.AddAll(p.Virtual)
	return b
}

// Partitioning is Π: the set of partitions plus the node-to-site mapping m.
type Partitioning struct {
	Parts []*Partition
	// Assign maps every node id to the partition storing it (-1 for dead
	// ids).
	Assign []int
}

// Locate returns the partition id storing v, or -1.
func (pi *Partitioning) Locate(v graph.NodeID) int {
	if v < 0 || int(v) >= len(pi.Assign) {
		return -1
	}
	return pi.Assign[v]
}

// CrossEdge is an edge of the partition graph Gp.
type CrossEdge struct {
	Edge graph.Edge
	// FromPart / ToPart are the partitions storing the endpoints.
	FromPart, ToPart int
}

// PartitionGraph returns Gp = (Vp, Ep): all cross edges with their head and
// tail partitions. Vp is implied by the edges (virtual and in-nodes).
func (pi *Partitioning) PartitionGraph() []CrossEdge {
	var out []CrossEdge
	for _, p := range pi.Parts {
		for v := range p.Members {
			p.Local.EachOut(v, func(u graph.NodeID, w float64) {
				tp := pi.Locate(u)
				if tp != p.ID {
					out = append(out, CrossEdge{
						Edge:     graph.Edge{From: v, To: u, Weight: w},
						FromPart: p.ID,
						ToPart:   tp,
					})
				}
			})
		}
	}
	return out
}

// Merge reassembles the whole graph from the partitions (each edge lives in
// exactly one partition: the one storing its source). It is the inverse of
// Split and is used by tests and by a centralized fallback.
func (pi *Partitioning) Merge() *graph.Graph {
	g := graph.New(0)
	for _, p := range pi.Parts {
		for v := range p.Members {
			g.Revive(v)
		}
	}
	for _, p := range pi.Parts {
		for v := range p.Members {
			p.Local.EachOut(v, func(u graph.NodeID, w float64) {
				g.Revive(u)
				if err := g.AddEdge(v, u, w); err != nil {
					// Each edge is stored exactly once; duplicates mean a
					// corrupted partitioning.
					panic(fmt.Sprintf("partition: merge conflict on (%d,%d): %v", v, u, err))
				}
			})
		}
	}
	return g
}

// Split partitions g according to assign, which maps every live node to a
// partition in [0, k). Dead ids may carry any value.
func Split(g *graph.Graph, assign []int, k int) (*Partitioning, error) {
	if len(assign) != g.Cap() {
		return nil, fmt.Errorf("partition: assign has %d entries for id space %d", len(assign), g.Cap())
	}
	if k <= 0 {
		return nil, fmt.Errorf("partition: need at least one partition")
	}
	pi := &Partitioning{Assign: make([]int, g.Cap())}
	for i := range pi.Assign {
		pi.Assign[i] = -1
	}
	for i := 0; i < k; i++ {
		pi.Parts = append(pi.Parts, &Partition{
			ID:      i,
			Local:   graph.New(0),
			Members: graph.NewNodeSet(),
			Virtual: graph.NewNodeSet(),
			InNodes: graph.NewNodeSet(),
		})
	}
	var err error
	g.EachNode(func(v graph.NodeID) {
		a := assign[v]
		if a < 0 || a >= k {
			if err == nil {
				err = fmt.Errorf("partition: node %d assigned to %d, want [0,%d)", v, a, k)
			}
			return
		}
		pi.Assign[v] = a
		p := pi.Parts[a]
		p.Members.Add(v)
		p.Local.Revive(v)
	})
	if err != nil {
		return nil, err
	}
	g.EachNode(func(v graph.NodeID) {
		src := pi.Parts[pi.Assign[v]]
		g.EachOut(v, func(u graph.NodeID, w float64) {
			au := pi.Assign[u]
			if au == src.ID {
				src.Local.Revive(u)
				if e := src.Local.AddEdge(v, u, w); e != nil && err == nil {
					err = e
				}
				return
			}
			// Cross edge: stored at the source partition with u virtual,
			// and u becomes an in-node of its home partition.
			src.Local.Revive(u)
			src.Virtual.Add(u)
			if e := src.Local.AddEdge(v, u, w); e != nil && err == nil {
				err = e
			}
			pi.Parts[au].setForeignOwner(u, v, true)
		})
	})
	if err != nil {
		return nil, err
	}
	return pi, nil
}

// ByHash assigns node v to partition v mod k — a locality-free partitioner
// that maximizes cross edges, useful as a stress test.
func ByHash(g *graph.Graph, k int) (*Partitioning, error) {
	assign := make([]int, g.Cap())
	for i := range assign {
		assign[i] = i % k
	}
	return Split(g, assign, k)
}

// ByContiguous assigns equal contiguous id ranges to the k partitions — the
// "one country per site" layout of the EU graphs, whose generators number
// countries contiguously.
func ByContiguous(g *graph.Graph, k int) (*Partitioning, error) {
	n := g.Cap()
	per := (n + k - 1) / k
	assign := make([]int, n)
	for i := range assign {
		a := i / per
		if a >= k {
			a = k - 1
		}
		assign[i] = a
	}
	return Split(g, assign, k)
}
