// eval.go — the evaluator, as relational algebra over the relations' tuple
// lists. A rule's body is joined atom by atom: σ keeps a tuple whose
// constants and already-bound variables agree with it, and ⋈ extends the
// row with its free variables. A plain head is π of the joined rows. An
// msum head is γ grouped by the head, summing one weight per distinct
// contributor, then σ on the threshold the program states.
//
// Evaluation is semi-naive. A relation only ever appends, so the tuples a
// round appended are a window of its list. Round one joins every rule over
// whole relations in written order; after it a rule is joined once per
// body atom whose relation grew in the round before: that atom leads and
// reads only its window, and the others follow in written order and read
// their whole relation. A derivation new in a round uses a tuple new in the
// round before, so none is missed.
package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// Explain reports what an evaluation did: the goal it answered, the rounds
// to the fixpoint, and per rule the tuples its joins read, the rows they
// produced and the tuples its head derived.
type Explain struct {
	Goal       string        `json:"goal"`
	Iterations int           `json:"iterations"`
	Derived    int           `json:"derived"`
	Rules      []RuleExplain `json:"rules,omitempty"`
}

// RuleExplain counts one rule's work over a Run.
type RuleExplain struct {
	Rule    string `json:"rule"`
	Reads   int    `json:"reads"`   // tuples its joins read, σ's input
	Matches int    `json:"matches"` // complete body rows
	Derived int    `json:"derived"` // new tuples asserted
}

// ruleEval is one rule during a Run: its relations, looked up once, the
// msum state it keeps across rounds, and its counters.
type ruleEval struct {
	Rule
	head *relation
	body []*relation
	buf  []Value            // the head tuple, then the msum contributor
	sum  map[string]float64 // γ: the weight summed per group (encoded head)
	seen map[string]bool    // the (group, contributor) pairs already summed
	x    *RuleExplain
}

// row is a partial row of a body's join: the variables bound so far, in
// binding order. Weight variables are a namespace of their own, as in
// validateRule.
type row struct {
	vars  []string
	vals  []Value
	wvars []string
	wvals []float64
}

// Run evaluates the rules bottom-up to a fixpoint, deriving into the
// engine's own relations, and returns the number of rounds and the
// evaluation report.
func (e *Engine) Run() (int, *Explain) {
	x := &Explain{Goal: "fixpoint", Rules: make([]RuleExplain, len(e.rules))}
	rules := make([]*ruleEval, len(e.rules))
	for i, r := range e.rules {
		re := &ruleEval{Rule: r, head: e.rels[r.Head.Pred], buf: make([]Value, len(r.Head.Terms)+1), x: &x.Rules[i]}
		re.x.Rule = ruleText(r)
		for _, a := range r.Body {
			re.body = append(re.body, e.rels[a.Pred])
		}
		if r.Agg != nil {
			re.sum, re.seen = map[string]float64{}, map[string]bool{}
		}
		rules[i] = re
	}
	// win[rel] is the window of tuples rel gained in the round before; only
	// its upper end, the size rel began this round at, is set before round 2.
	win := make(map[*relation][2]int, len(e.rels))
	for _, rel := range e.rels {
		win[rel] = [2]int{0, rel.size()}
	}
	var rw row
	for grew := true; grew; {
		x.Iterations++
		for _, r := range rules {
			if x.Iterations == 1 {
				r.join(&rw, 0, [2]int{0, r.body[0].size()}, 0)
				continue
			}
			for lead, rel := range r.body {
				if w := win[rel]; w[0] < w[1] {
					r.join(&rw, lead, w, 0)
				}
			}
		}
		grew = false
		for _, rel := range e.rels {
			w := [2]int{win[rel][1], rel.size()}
			win[rel], grew = w, grew || w[0] < w[1]
		}
	}
	for _, r := range x.Rules {
		x.Derived += r.Derived
	}
	return x.Iterations, x
}

// join extends rw over the body from step i on. Step 0 is the lead atom,
// which reads only the window w; the other atoms follow in written order
// and read their whole relation.
func (r *ruleEval) join(rw *row, lead int, w [2]int, i int) {
	if i == len(r.Body) {
		r.fire(rw)
		return
	}
	ai := i
	switch {
	case i == 0:
		ai = lead
	case i <= lead:
		ai = i - 1
	}
	a, rel := r.Body[ai], r.body[ai]
	lo, hi := 0, rel.size()
	if i == 0 {
		lo, hi = w[0], w[1]
	}
	// The first position the row already knows lets a view read one
	// company's adjacency instead of every stake.
	pos, v := -1, Value(0)
	for p, t := range a.Terms {
		if val, ok := rw.value(t); ok {
			pos, v = p, val
			break
		}
	}
	n, nw := len(rw.vars), len(rw.wvars)
	rel.each(pos, v, lo, hi, func(t []Value, wt float64) {
		r.x.Reads++
		if rw.bind(a, t, wt) {
			r.join(rw, lead, w, i+1)
		}
		rw.vars, rw.vals = rw.vars[:n], rw.vals[:n]
		rw.wvars, rw.wvals = rw.wvars[:nw], rw.wvals[:nw]
	})
}

// fire projects a complete row onto the head (π). An msum rule first folds
// the row into its group (γ, one weight per distinct contributor) and
// asserts the head only once the group's sum passes the threshold (σ).
func (r *ruleEval) fire(rw *row) {
	r.x.Matches++
	head := r.buf[:len(r.Head.Terms)]
	for i, t := range r.Head.Terms {
		head[i], _ = rw.value(t)
	}
	if r.Agg != nil {
		r.buf[len(head)], _ = rw.value(V(r.Agg.ContribVar))
		key := encode(r.buf)
		if r.seen[key] {
			return
		}
		r.seen[key] = true
		group := key[:8*len(head)]
		w, _ := rw.weight(r.Agg.WeightVar)
		if r.sum[group] += w; r.sum[group] <= r.Agg.Threshold {
			return
		}
	}
	if r.head.insert(head, 0) {
		r.x.Derived++
	}
}

// bind is σ and ⋈ for one tuple of atom a: its constants and bound
// variables must agree with the tuple, and its free variables, and weight,
// extend the row.
func (rw *row) bind(a Atom, t []Value, w float64) bool {
	for i, term := range a.Terms {
		if v, ok := rw.value(term); ok {
			if v != t[i] {
				return false
			}
			continue
		}
		rw.vars, rw.vals = append(rw.vars, term.Var), append(rw.vals, t[i])
	}
	if a.WeightVar == "" {
		return true
	}
	if v, ok := rw.weight(a.WeightVar); ok {
		return v == w
	}
	rw.wvars, rw.wvals = append(rw.wvars, a.WeightVar), append(rw.wvals, w)
	return true
}

// value is t's value in the row: a constant's own, or a bound variable's.
func (rw *row) value(t Term) (Value, bool) {
	if t.Var == "" {
		return t.Const, true
	}
	for i, v := range rw.vars {
		if v == t.Var {
			return rw.vals[i], true
		}
	}
	return 0, false
}

// weight is the value of the weight variable name in the row.
func (rw *row) weight(name string) (float64, bool) {
	for i, v := range rw.wvars {
		if v == name {
			return rw.wvals[i], true
		}
	}
	return 0, false
}

func (x *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goal: %s\nrounds: %d  derived: %d\n", x.Goal, x.Iterations, x.Derived)
	for _, r := range x.Rules {
		fmt.Fprintf(&b, "rule: %s\n  reads: %d  matches: %d  derived: %d\n", r.Rule, r.Reads, r.Matches, r.Derived)
	}
	return b.String()
}

func atomText(a Atom) string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.Var
		if t.Var == "" {
			parts[i] = strconv.FormatInt(t.Const, 10)
		}
	}
	s := a.Pred + "(" + strings.Join(parts, ",") + ")"
	if a.WeightVar != "" {
		s += "@" + a.WeightVar
	}
	return s
}

func ruleText(r Rule) string {
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = atomText(a)
	}
	s := atomText(r.Head) + " :- " + strings.Join(parts, ", ")
	if r.Agg != nil {
		s += fmt.Sprintf(", msum(%s,<%s>) > %g", r.Agg.WeightVar, r.Agg.ContribVar, r.Agg.Threshold)
	}
	return s + "."
}
