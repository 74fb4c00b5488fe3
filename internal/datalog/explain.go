// explain.go — human-readable plan and evaluation reports, backing the
// ccpctl -explain flag.
package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// RuleExplain describes one compiled rule: its text, the join order chosen
// for each delta position, and the evaluation counters.
type RuleExplain struct {
	Rule    string   `json:"rule"`
	Orders  []string `json:"orders"`
	Matches int      `json:"matches"` // complete body bindings
	Derived int      `json:"derived"` // new tuples asserted
}

// Explain reports what an evaluation did: the goal it answered, and per-rule
// join orders with tuple counts.
type Explain struct {
	Goal       string        `json:"goal"`
	Iterations int           `json:"iterations"`
	Derived    int           `json:"derived"`
	Rules      []RuleExplain `json:"rules,omitempty"`
}

func buildExplain(ev *planEval) *Explain {
	x := &Explain{Iterations: ev.iterations}
	for ri, rp := range ev.prog.rules {
		x.Derived += ev.ruleDerived[ri]
		x.Rules = append(x.Rules, RuleExplain{
			Rule:    rp.text,
			Orders:  rp.orderTexts,
			Matches: ev.ruleMatches[ri],
			Derived: ev.ruleDerived[ri],
		})
	}
	return x
}

func (x *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goal: %s\nrounds: %d  derived: %d\n", x.Goal, x.Iterations, x.Derived)
	for _, r := range x.Rules {
		fmt.Fprintf(&b, "rule: %s\n", r.Rule)
		for _, o := range r.Orders {
			fmt.Fprintf(&b, "  order: %s\n", o)
		}
		fmt.Fprintf(&b, "  matches: %d  derived: %d\n", r.Matches, r.Derived)
	}
	return b.String()
}

func termText(t Term) string {
	if t.Var != "" {
		return t.Var
	}
	return strconv.FormatInt(t.Const, 10)
}

func atomText(a Atom) string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = termText(t)
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

// stepText renders one join step: the atom, a Δ marker when it is the delta
// input, and the statically chosen access path.
func stepText(a Atom, st atomStep, isDelta bool) string {
	s := atomText(a)
	if isDelta {
		s = "Δ" + s
	}
	if st.indexPos >= 0 {
		return fmt.Sprintf("%s[idx %d]", s, st.indexPos)
	}
	return s + "[scan]"
}

func orderText(steps []atomStep) string {
	parts := make([]string, len(steps))
	for i, st := range steps {
		parts[i] = st.text
	}
	return strings.Join(parts, " ⋈ ")
}
