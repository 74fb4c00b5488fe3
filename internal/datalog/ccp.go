package datalog

import (
	"ccp/internal/graph"
)

// controlEngine binds g as the own relation, read in place, and loads the
// program src over it; callers assert the source facts.
func controlEngine(g *graph.Graph, src string) (*Engine, error) {
	e := NewEngine()
	if err := e.BindGraph("own", g); err != nil {
		return nil, err
	}
	if err := e.Load(src); err != nil {
		return nil, err
	}
	return e, nil
}

// NewProgram returns an engine running the program src over the ownership
// graph g: own(y,z)@w is g itself (see BindGraph), and source(s) is asserted
// when s is a live company of g — a dead source controls nothing, as in
// control.ControlledSet.
func NewProgram(g *graph.Graph, src string, s graph.NodeID) (*Engine, error) {
	e, err := controlEngine(g, src)
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
// fixpoint (see ControlsExplain).
func Controls(g *graph.Graph, s, t graph.NodeID) (bool, error) {
	ok, _, err := ControlsExplain(g, s, t)
	return ok, err
}

// ControlsExplain answers q_c(s, t) by running the company control program
// (ProgramText) bottom-up to fixpoint from source s — the declarative
// reference implementation of the company control problem — and returns the
// evaluation report.
func ControlsExplain(g *graph.Graph, s, t graph.NodeID) (bool, *Explain, error) {
	if s == t {
		return true, reflexive(s), nil
	}
	e, err := NewProgram(g, ProgramText(), s)
	if err != nil {
		return false, nil, err
	}
	_, x, err := e.Run()
	if err != nil {
		return false, nil, err
	}
	return e.Has("control", Value(s), Value(t)), x, nil
}

// reflexive is the report of the query control(s,s)?, which holds without
// evaluation.
func reflexive(s graph.NodeID) *Explain {
	return &Explain{Goal: goalText("control", []Term{C(Value(s)), C(Value(s))}), Adornment: "bb"}
}

// ControlledSet computes the full Control(s, ·) relation declaratively.
func ControlledSet(g *graph.Graph, s graph.NodeID) (graph.NodeSet, error) {
	e, err := NewProgram(g, ProgramText(), s)
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

// CCPSolver answers control queries goal-directedly over one graph. Unlike
// Controls, which runs the global fixpoint per call, the solver asserts
// source(v) once for every alive node, so any company can be a query source,
// and answers each query through Engine.Query: the magic-sets rewrite seeds
// only the subgraph reachable from the queried source. The graph is read in
// place and must not change while queries run; queries are safe to issue
// from multiple goroutines and share no mutable state.
type CCPSolver struct {
	e *Engine
}

// NewCCPSolver builds a solver over g.
func NewCCPSolver(g *graph.Graph) (*CCPSolver, error) {
	e, err := controlEngine(g, ProgramText())
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
		return true, reflexive(s), nil
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
