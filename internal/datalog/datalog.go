// Package datalog is a small recursive-query engine standing in for the
// Vadalog system the paper uses to state the company control program:
//
//	Control(x,x) :- Source(x).                                   (1)
//	Control(x,z) :- Control(x,y), Own(y,z,w),
//	                v = msum(w, <y>), v > 0.5.                   (2)
//
// The engine evaluates stratified-recursion-free programs of Horn rules by
// semi-naive fixpoint iteration, with one extension: a rule may carry a
// monotonic-sum aggregate (msum) that accumulates a weight over distinct
// contributor bindings per head tuple and fires the head only when the sum
// crosses a threshold. msum is monotone, so the semi-naive strategy stays
// sound: every (group, contributor) pair is counted exactly once, and fired
// heads are never retracted.
//
// There is one evaluator: rules compile to slot plans (plan.go) that one
// streaming fixpoint loop runs (eval.go). Run evaluates the program as
// written — the bottom-up reference — and Query puts the magic-sets rewrite
// (magic.go) in front of the same loop.
package datalog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
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

	// insertWeight, when non-empty, names a body weight variable whose value
	// is stored as the derived head tuple's weight. It is set only on the
	// synthetic base-copy rules of the magic transform (see magic.go), which
	// must preserve the weights of facts asserted into IDB relations.
	insertWeight string
}

// relation stores the tuples of one predicate.
type relation struct {
	name     string
	arity    int
	weighted bool

	tuples  map[string]int // encoded tuple -> index into list/weights
	list    [][]Value      // insertion order, for scans and deltas
	weights []float64      // weight per tuple (0 when unweighted)
	// index[pos][value] lists tuple indices with that value at pos, in
	// ascending order (tuples are only ever appended).
	index []map[Value][]int
}

func newRelation(name string, arity int, weighted bool) *relation {
	r := &relation{
		name:     name,
		arity:    arity,
		weighted: weighted,
		tuples:   make(map[string]int),
		index:    make([]map[Value][]int, arity),
	}
	for i := range r.index {
		r.index[i] = make(map[Value][]int)
	}
	return r
}

// reset empties the relation in place, keeping the allocated maps and slices
// so a pooled evaluation can reuse them without churn.
func (r *relation) reset() {
	clear(r.tuples)
	r.list = r.list[:0]
	r.weights = r.weights[:0]
	for i := range r.index {
		clear(r.index[i])
	}
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
	if _, ok := r.tuples[k]; ok {
		return false
	}
	idx := len(r.list)
	r.tuples[k] = idx
	own := make([]Value, len(t))
	copy(own, t)
	r.list = append(r.list, own)
	r.weights = append(r.weights, w)
	for pos, v := range own {
		r.index[pos][v] = append(r.index[pos][v], idx)
	}
	return true
}

func (r *relation) has(t []Value) bool {
	_, ok := r.tuples[encode(t)]
	return ok
}

// Engine holds relations and rules; Run and Query evaluate them.
type Engine struct {
	rels  map[string]*relation
	rules []Rule

	// version counts schema changes (relations, rules); compiled plans are
	// keyed by it, so a schema change invalidates the plan cache.
	version int
	// planMu guards planCache. Compiled plans themselves are safe for
	// concurrent evaluation (see eval.go): Query may be called from multiple
	// goroutines as long as no AddFact/AddRule/Run runs concurrently.
	planMu    sync.Mutex
	planCache map[string]*planProgram
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{rels: make(map[string]*relation)}
}

// schemaChanged bumps the plan-cache version; stale plans are dropped.
func (e *Engine) schemaChanged() {
	e.planMu.Lock()
	e.version++
	e.planCache = nil
	e.planMu.Unlock()
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
	e.rels[name] = newRelation(name, arity, weighted)
	e.schemaChanged()
	return nil
}

// AddFact inserts a tuple into a declared relation.
func (e *Engine) AddFact(name string, weight float64, tuple ...Value) error {
	r, ok := e.rels[name]
	if !ok {
		return fmt.Errorf("datalog: unknown relation %s", name)
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
	e.schemaChanged()
	return nil
}

func (e *Engine) validateRule(rule Rule) error {
	head, ok := e.rels[rule.Head.Pred]
	if !ok {
		return fmt.Errorf("datalog: head predicate %s undeclared", rule.Head.Pred)
	}
	if len(rule.Head.Terms) != head.arity {
		return fmt.Errorf("datalog: head arity mismatch for %s", rule.Head.Pred)
	}
	if len(rule.Body) == 0 {
		return fmt.Errorf("datalog: rule for %s has empty body", rule.Head.Pred)
	}
	bound := map[string]bool{}
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
				bound[t.Var] = true
			}
		}
		if a.WeightVar != "" {
			bound[a.WeightVar] = true
		}
	}
	for _, t := range rule.Head.Terms {
		if t.Var != "" && !bound[t.Var] {
			return fmt.Errorf("datalog: head variable %s unbound in %s", t.Var, rule.Head.Pred)
		}
	}
	if rule.Agg != nil {
		if !bound[rule.Agg.WeightVar] {
			return fmt.Errorf("datalog: msum weight variable %s unbound", rule.Agg.WeightVar)
		}
		if !bound[rule.Agg.ContribVar] {
			return fmt.Errorf("datalog: msum contributor variable %s unbound", rule.Agg.ContribVar)
		}
	}
	return nil
}

// Facts returns a copy of the tuples of a relation, sorted lexicographically
// (deterministic for tests and output).
func (e *Engine) Facts(name string) [][]Value {
	r, ok := e.rels[name]
	if !ok {
		return nil
	}
	out := make([][]Value, len(r.list))
	for i, t := range r.list {
		c := make([]Value, len(t))
		copy(c, t)
		out[i] = c
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// Has reports whether a tuple has been derived.
func (e *Engine) Has(name string, tuple ...Value) bool {
	r, ok := e.rels[name]
	return ok && r.has(tuple)
}

// Count returns the number of tuples of a relation.
func (e *Engine) Count(name string) int {
	r, ok := e.rels[name]
	if !ok {
		return 0
	}
	return len(r.list)
}
