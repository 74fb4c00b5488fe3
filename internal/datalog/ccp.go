package datalog

import (
	"fmt"

	"ccp/internal/graph"
)

// NewProgram returns an engine running the program src over the ownership
// graph g: own(y,z)@w is g itself (see BindGraph), and source(s) is asserted
// when s is a live company of g — a dead source controls nothing, as in
// control.ControlledSet.
func NewProgram(g *graph.Graph, src string, s graph.NodeID) (*Engine, error) {
	e := NewEngine()
	if err := e.BindGraph("own", g); err != nil {
		return nil, err
	}
	if err := e.Load(src); err != nil {
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
// evaluation report. control(s,s) holds without evaluation.
func ControlsExplain(g *graph.Graph, s, t graph.NodeID) (bool, *Explain, error) {
	goal := fmt.Sprintf("control(%d,%d)?", s, t)
	if s == t {
		return true, &Explain{Goal: goal}, nil
	}
	e, err := NewProgram(g, ProgramText(), s)
	if err != nil {
		return false, nil, err
	}
	_, x := e.Run()
	x.Goal = goal
	return e.Has("control", Value(s), Value(t)), x, nil
}
