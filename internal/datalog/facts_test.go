package datalog

import (
	"slices"

	"ccp/internal/graph"
)

// Facts returns a copy of the tuples of a relation, sorted lexicographically
// (deterministic for tests and output).
func (e *Engine) Facts(name string) [][]Value {
	r, ok := e.rels[name]
	if !ok {
		return nil
	}
	var out [][]Value
	r.each(-1, 0, 0, r.size(), func(t []Value, _ float64) {
		out = append(out, slices.Clone(t))
	})
	slices.SortFunc(out, slices.Compare)
	return out
}

// ControlledSet computes the full Control(s, ·) relation declaratively.
func ControlledSet(g *graph.Graph, s graph.NodeID) (graph.NodeSet, error) {
	e, err := NewProgram(g, ProgramText(), s)
	if err != nil {
		return nil, err
	}
	e.Run()
	set := graph.NewNodeSet()
	for _, tup := range e.Facts("control") {
		set.Add(graph.NodeID(tup[1]))
	}
	return set, nil
}
