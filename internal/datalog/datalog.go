// Package datalog is a small recursive-query engine standing in for the
// Vadalog system the paper uses to state the company control program:
//
//	Control(x,x) :- Source(x).                                   (1)
//	Control(x,z) :- Control(x,y), Own(y,z,w),
//	                v = msum(w, <y>), v > 0.5.                   (2)
//
// The engine evaluates recursive programs of Horn rules to a fixpoint as
// relational algebra (eval.go). A rule may carry a monotonic-sum aggregate
// (msum), which sums a weight over distinct contributors per head tuple and
// fires the head once the sum passes a threshold. msum is monotone, so
// semi-naive evaluation stays sound: every (group, contributor) pair is
// counted once, and a derived head is never retracted.
//
// The program is the executable specification: there is no goal-directed
// rewrite and no join planner. A control query seeds source(s) with its one
// source, which already restricts the fixpoint to what s reaches.
//
// A relation is either stored (tuples asserted with AddFact or derived by
// rules) or a read-only view over a *graph.Graph bound with BindGraph: the
// ownership graph itself is the EDB of the company control program, read in
// place through its adjacency, never copied.
package datalog

import (
	"encoding/binary"
	"fmt"

	"ccp/internal/graph"
)

// Value is a constant of the Herbrand universe (company ids, etc.).
type Value = int64

// Term is a variable or a constant appearing in an atom.
type Term struct {
	Var   string // non-empty for variables
	Const Value  // used when Var is empty
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v Value) Term { return Term{Const: v} }

// Atom is a predicate applied to terms. For weighted relations, WeightVar
// optionally binds the tuple's weight in rule bodies.
type Atom struct {
	Pred      string
	Terms     []Term
	WeightVar string
}

// MSum describes the monotonic-sum aggregate of a rule: the weight bound by
// WeightVar is summed over distinct bindings of the contributor variable
// ContribVar, grouped by the head variables; the head fires when the sum
// exceeds Threshold.
type MSum struct {
	WeightVar  string
	ContribVar string
	Threshold  float64
}

// Rule is a Horn rule with an optional msum aggregate.
type Rule struct {
	Head Atom
	Body []Atom
	Agg  *MSum
}

// relation holds the tuples of one predicate: stored ones, or — when g is
// set — the edges of a graph, in which case the stored fields stay empty.
type relation struct {
	arity    int
	weighted bool
	g        *graph.Graph

	tuples  map[string]bool // encoded tuples, for set semantics
	list    [][]Value       // insertion order, for scans and windows
	weights []float64       // weight per tuple (0 when unweighted)
}

func encode(t []Value) string {
	buf := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	return string(buf)
}

// insert adds a tuple if new; it reports whether it was added.
func (r *relation) insert(t []Value, w float64) bool {
	k := encode(t)
	if r.tuples[k] {
		return false
	}
	r.tuples[k] = true
	r.list = append(r.list, append([]Value(nil), t...))
	r.weights = append(r.weights, w)
	return true
}

func (r *relation) has(t []Value) bool {
	if r.g != nil {
		y, ok1 := node(t[0])
		z, ok2 := node(t[1])
		return ok1 && ok2 && r.g.HasEdge(y, z)
	}
	return r.tuples[encode(t)]
}

// size is the tuple count, the upper end of the relation's windows. A view
// never grows, so its first window is all of it and every later one is
// empty.
func (r *relation) size() int {
	if r.g != nil {
		return r.g.NumEdges()
	}
	return len(r.list)
}

// each is the one read of the evaluator: it calls fn for the tuples in the
// window [lo, hi), of which the caller's σ keeps those whose value at pos
// is v. A stored relation scans its window. A view reads only what can
// match: with pos 0 the company's stakes (EachOut), with pos 1 its
// shareholders (EachIn), and with pos < 0 every stake of every company. fn
// must not keep the tuple.
func (r *relation) each(pos int, v Value, lo, hi int, fn func(t []Value, w float64)) {
	if r.g == nil {
		for ti := lo; ti < hi; ti++ {
			fn(r.list[ti], r.weights[ti])
		}
		return
	}
	n, ok := node(v)
	if lo >= hi || (pos >= 0 && !ok) {
		return
	}
	t := make([]Value, 2)
	switch pos {
	case 0:
		t[0] = v
		r.g.EachOut(n, func(z graph.NodeID, w float64) {
			t[1] = Value(z)
			fn(t, w)
		})
	case 1:
		t[1] = v
		r.g.EachIn(n, func(y graph.NodeID, w float64) {
			t[0] = Value(y)
			fn(t, w)
		})
	default:
		r.g.EachNode(func(y graph.NodeID) {
			r.g.EachOut(y, func(z graph.NodeID, w float64) {
				t[0], t[1] = Value(y), Value(z)
				fn(t, w)
			})
		})
	}
}

// node converts a constant to a company id; values outside the id range
// name no company.
func node(v Value) (graph.NodeID, bool) {
	return graph.NodeID(v), v == Value(graph.NodeID(v))
}

// Engine holds relations and rules; Run evaluates them, deriving into the
// engine's own relations. An engine is used by one goroutine at a time; a
// bound graph must not change while Run reads it.
type Engine struct {
	rels  map[string]*relation
	rules []Rule
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{rels: make(map[string]*relation)}
}

// Relation declares a predicate with the given arity. Weighted relations
// carry a float64 payload per tuple, bindable in rule bodies.
func (e *Engine) Relation(name string, arity int, weighted bool) error {
	if _, dup := e.rels[name]; dup {
		return fmt.Errorf("datalog: relation %s already declared", name)
	}
	if arity < 1 {
		return fmt.Errorf("datalog: relation %s must have positive arity", name)
	}
	e.rels[name] = &relation{arity: arity, weighted: weighted, tuples: map[string]bool{}}
	return nil
}

// BindGraph declares name as the weighted binary relation name(y, z)@w of
// g's stakes: one tuple per edge y→z with label w. The relation is a
// read-only view over g's adjacency — binding copies nothing, whatever the
// graph's size — so asserting a fact into it, or a rule deriving it, is an
// error, and g must not change while the engine evaluates.
func (e *Engine) BindGraph(name string, g *graph.Graph) error {
	if _, dup := e.rels[name]; dup {
		return fmt.Errorf("datalog: relation %s already declared", name)
	}
	e.rels[name] = &relation{arity: 2, weighted: true, g: g}
	return nil
}

// AddFact inserts a tuple into a declared relation.
func (e *Engine) AddFact(name string, weight float64, tuple ...Value) error {
	r, ok := e.rels[name]
	if !ok {
		return fmt.Errorf("datalog: unknown relation %s", name)
	}
	if r.g != nil {
		return readOnly(name)
	}
	if len(tuple) != r.arity {
		return fmt.Errorf("datalog: %s has arity %d, got %d values", name, r.arity, len(tuple))
	}
	r.insert(tuple, weight)
	return nil
}

// AddRule registers a rule after validating it.
func (e *Engine) AddRule(rule Rule) error {
	if err := e.validateRule(rule); err != nil {
		return err
	}
	e.rules = append(e.rules, rule)
	return nil
}

func readOnly(name string) error {
	return fmt.Errorf("datalog: %s is a read-only view of a graph", name)
}

func (e *Engine) validateRule(rule Rule) error {
	head, ok := e.rels[rule.Head.Pred]
	if !ok {
		return fmt.Errorf("datalog: head predicate %s undeclared", rule.Head.Pred)
	}
	if head.g != nil {
		return readOnly(rule.Head.Pred)
	}
	if len(rule.Head.Terms) != head.arity {
		return fmt.Errorf("datalog: head arity mismatch for %s", rule.Head.Pred)
	}
	if len(rule.Body) == 0 {
		return fmt.Errorf("datalog: rule for %s has empty body", rule.Head.Pred)
	}
	// Terms bind tuple variables and "@ w" binds weight variables; the head
	// and the msum contributor read the former, the msum weight the latter.
	vars, weights := map[string]bool{}, map[string]bool{}
	for _, a := range rule.Body {
		r, ok := e.rels[a.Pred]
		if !ok {
			return fmt.Errorf("datalog: body predicate %s undeclared", a.Pred)
		}
		if len(a.Terms) != r.arity {
			return fmt.Errorf("datalog: body arity mismatch for %s", a.Pred)
		}
		if a.WeightVar != "" && !r.weighted {
			return fmt.Errorf("datalog: %s is not weighted", a.Pred)
		}
		for _, t := range a.Terms {
			if t.Var != "" {
				vars[t.Var] = true
			}
		}
		if a.WeightVar != "" {
			weights[a.WeightVar] = true
		}
	}
	for _, t := range rule.Head.Terms {
		if t.Var != "" && !vars[t.Var] {
			return fmt.Errorf("datalog: head variable %s unbound in %s", t.Var, rule.Head.Pred)
		}
	}
	if rule.Agg != nil {
		if !weights[rule.Agg.WeightVar] {
			return fmt.Errorf("datalog: msum weight variable %s unbound", rule.Agg.WeightVar)
		}
		if !vars[rule.Agg.ContribVar] {
			return fmt.Errorf("datalog: msum contributor variable %s unbound", rule.Agg.ContribVar)
		}
	}
	return nil
}

// Has reports whether a tuple has been derived.
func (e *Engine) Has(name string, tuple ...Value) bool {
	r, ok := e.rels[name]
	return ok && len(tuple) == r.arity && r.has(tuple)
}

// Count returns the number of tuples of a relation.
func (e *Engine) Count(name string) int {
	r, ok := e.rels[name]
	if !ok {
		return 0
	}
	return r.size()
}
