package datalog

import (
	"ccp/internal/graph"
)

// controlEngine loads the company control program of Section III
// (ProgramText) and g's ownership edges as own facts; callers assert the
// source facts.
func controlEngine(g *graph.Graph) (*Engine, error) {
	e := NewEngine()
	if err := e.Load(ProgramText()); err != nil {
		return nil, err
	}
	var addErr error
	g.EachNode(func(v graph.NodeID) {
		g.EachOut(v, func(u graph.NodeID, w float64) {
			if err := e.AddFact("own", w, Value(v), Value(u)); err != nil && addErr == nil {
				addErr = err
			}
		})
	})
	if addErr != nil {
		return nil, addErr
	}
	return e, nil
}

// ControlProgram builds an engine loaded with the control program over the
// ownership graph g, seeded with source company s.
func ControlProgram(g *graph.Graph, s graph.NodeID) (*Engine, error) {
	e, err := controlEngine(g)
	if err != nil {
		return nil, err
	}
	if g.Alive(s) {
		if err := e.AddFact("source", 0, Value(s)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Controls answers q_c(s, t) by running the logic program bottom-up to
// fixpoint — the declarative reference implementation of the company control
// problem.
func Controls(g *graph.Graph, s, t graph.NodeID) (bool, error) {
	if s == t {
		return true, nil
	}
	e, err := ControlProgram(g, s)
	if err != nil {
		return false, err
	}
	if _, _, err := e.Run(); err != nil {
		return false, err
	}
	return e.Has("control", Value(s), Value(t)), nil
}

// ControlledSet computes the full Control(s, ·) relation declaratively.
func ControlledSet(g *graph.Graph, s graph.NodeID) (graph.NodeSet, error) {
	e, err := ControlProgram(g, s)
	if err != nil {
		return nil, err
	}
	if _, _, err := e.Run(); err != nil {
		return nil, err
	}
	set := graph.NewNodeSet()
	for _, tup := range e.Facts("control") {
		set.Add(graph.NodeID(tup[1]))
	}
	return set, nil
}

// CCPSolver answers control queries goal-directedly over one loaded graph.
// Unlike Controls, which rebuilds an engine and runs the global fixpoint per
// call, the solver loads the ownership facts once — with source(v) for every
// alive node, so any company can be a query source — and answers each query
// through Engine.Query: the magic-sets rewrite seeds only the subgraph
// reachable from the queried source, and the compiled plan is cached across
// queries. Queries are safe to issue from multiple goroutines.
type CCPSolver struct {
	e *Engine
}

// NewCCPSolver builds a solver over g.
func NewCCPSolver(g *graph.Graph) (*CCPSolver, error) {
	e, err := controlEngine(g)
	if err != nil {
		return nil, err
	}
	var addErr error
	g.EachNode(func(v graph.NodeID) {
		if err := e.AddFact("source", 0, Value(v)); err != nil && addErr == nil {
			addErr = err
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	return &CCPSolver{e: e}, nil
}

// Engine exposes the underlying engine (for explain output and tests).
func (cs *CCPSolver) Engine() *Engine { return cs.e }

// Controls answers q_c(s, t) goal-directedly.
func (cs *CCPSolver) Controls(s, t graph.NodeID) (bool, error) {
	ok, _, err := cs.ControlsExplain(s, t)
	return ok, err
}

// ControlsExplain answers q_c(s, t) and returns the evaluation report.
func (cs *CCPSolver) ControlsExplain(s, t graph.NodeID) (bool, *Explain, error) {
	if s == t {
		return true, &Explain{Goal: goalText("control", []Term{C(Value(s)), C(Value(t))}), Adornment: "bb"}, nil
	}
	res, err := cs.e.Query("control", C(Value(s)), C(Value(t)))
	if err != nil {
		return false, nil, err
	}
	return res.Derived, res.Explain, nil
}

// ControlledSet computes Control(s, ·) goal-directedly: the magic seed
// restricts the fixpoint to tuples with source s.
func (cs *CCPSolver) ControlledSet(s graph.NodeID) (graph.NodeSet, error) {
	res, err := cs.e.Query("control", C(Value(s)), V("z"))
	if err != nil {
		return nil, err
	}
	set := graph.NewNodeSet()
	for _, tup := range res.Tuples {
		set.Add(graph.NodeID(tup[1]))
	}
	return set, nil
}
