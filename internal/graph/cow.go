package graph

import (
	"maps"
	"slices"
	"sync/atomic"
)

// cowTag issues process-unique ownership tags for copy-on-write clones.
// Tags are never reused, so a stale tag in a long-forgotten clone can never
// collide with a fresh one.
var cowTag atomic.Uint64

// SnapshotClone returns a copy-on-write clone of g: the per-node scalar
// state (aliveness, aggregates) is copied outright — an O(n) memcpy — while
// the adjacency maps are shared between g and the clone until either side
// mutates them. A mutator un-shares exactly the maps of the nodes it
// touches, so an update stream pays for the nodes it changes instead of a
// full O(n+m) deep clone per snapshot epoch.
//
// Sharing discipline: after SnapshotClone, both graphs may be read freely
// and either may be mutated *through Graph methods* (which un-share on
// write). Concurrently, one side may be mutated while the other is only
// read — the reader's maps are never written in place, which is exactly the
// MVCC contract a site needs (queries read a pinned snapshot while updates
// mutate the live graph). Direct-map surgery that bypasses the mutators
// (the par package's sharded reduction) must not run on a graph that has
// live snapshot siblings.
func (g *Graph) SnapshotClone() *Graph {
	if g.tags == nil {
		// First snapshot of this graph: materialize the tag array. Zeroed
		// entries differ from every issued tag, so every map reads as shared.
		g.tags = make([]uint64, len(g.alive))
	}
	c := &Graph{
		out:    slices.Clone(g.out),
		in:     slices.Clone(g.in),
		alive:  slices.Clone(g.alive),
		nAlive: g.nAlive,
		nEdges: g.nEdges,
		inSum:  slices.Clone(g.inSum),
		inBig:  slices.Clone(g.inBig),
		bigIn:  slices.Clone(g.bigIn),
		outBig: slices.Clone(g.outBig),
		tags:   slices.Clone(g.tags),
	}
	// Fresh tags on both sides: every map that existed at the clone point is
	// now shared, whoever owned it before.
	g.tag = cowTag.Add(1)
	c.tag = cowTag.Add(1)
	return c
}

// own makes v's adjacency maps safe for in-place mutation, cloning them if a
// snapshot sibling may still read them. On a graph that never snapshotted
// (tags == nil) it is a single branch.
func (g *Graph) own(v NodeID) {
	if g.tags == nil || g.tags[v] == g.tag {
		return
	}
	g.out[v] = maps.Clone(g.out[v]) // Clone(nil) == nil
	g.in[v] = maps.Clone(g.in[v])
	g.tags[v] = g.tag
}

// dropAdjacency empties the adjacency of v, which is being removed. A map the
// graph owns exclusively is cleared in place, so its table survives: a pooled
// scratch graph that a reduction mostly removes keeps every table for the
// next CloneInto, instead of rebuilding them all. A map possibly shared with
// a snapshot sibling is dropped, never cleared in place; v's maps are then
// nil, which no sibling shares, so v counts as owned from here on. Only v's
// own entries are written, so sharded kills of disjoint victims never race.
func (g *Graph) dropAdjacency(v NodeID) {
	if g.tags == nil || g.tags[v] == g.tag {
		clear(g.out[v])
		clear(g.in[v])
		return
	}
	g.out[v], g.in[v] = nil, nil
	g.tags[v] = g.tag
}

// detach drops every potentially shared map (replacing it with nil) and
// leaves the copy-on-write regime entirely. Reset and CloneInto call it so a
// former snapshot participant can be recycled as ordinary scratch without
// clearing a sibling's maps in place.
func (g *Graph) detach() {
	if g.tags == nil {
		return
	}
	for i := range g.out {
		if g.tags[i] != g.tag {
			g.out[i], g.in[i] = nil, nil
		}
	}
	g.tags, g.tag = nil, 0
}
