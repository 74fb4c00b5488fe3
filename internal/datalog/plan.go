// plan.go — the rule compiler. A Rule is compiled once into a rulePlan:
// variables are numbered into integer slots so evaluation runs over flat
// []Value / []float64 buffers instead of per-binding maps, body atoms are
// reordered by bound-prefix selectivity (constants and already-bound
// variables push joins toward indexed probes), and the positional index each
// atom will probe is chosen at plan time rather than re-discovered per call.
//
// Every rule gets one join order per semi-naive delta position, with the
// delta atom always first — the delta window is the most selective input, so
// leading with it keeps the streamed iteration tight. Slot numbers are
// assigned from the written body order, so all orders of one rule share the
// same slot layout and the aggregate/head logic never cares which order ran.
package datalog

import "fmt"

// Term-op kinds: how one atom position interacts with the slot buffer.
const (
	opConst uint8 = iota // tuple[pos] must equal val
	opBind               // first occurrence: slots[slot] = tuple[pos]
	opCheck              // tuple[pos] must equal slots[slot]
)

type termOp struct {
	kind uint8
	val  Value
	slot int
}

// relSig is the schema of a plan-private relation (magic transform output).
type relSig struct {
	arity    int
	weighted bool
}

// planRel is one relation referenced by a compiled program. base points at
// an engine relation (stored or a graph view); nil marks a private relation
// materialized fresh per evaluation — adorned and magic predicates live
// there, so concurrent goal-directed queries never write shared state.
type planRel struct {
	name     string
	arity    int
	weighted bool
	base     *relation
}

// atomStep is one body atom compiled for one particular join order.
type atomStep struct {
	relID      int
	ops        []termOp
	weightSlot int // wslots index to store the tuple weight, -1 if unused
	indexPos   int // tuple position to probe the index at, -1 = range scan
	text       string
}

type aggPlan struct {
	weightSlot  int
	contribSlot int
	threshold   float64
}

type rulePlan struct {
	headRelID int
	headOps   []termOp
	nSlots    int
	nWeights  int
	agg       *aggPlan
	// insertWeightSlot preserves a body weight into the derived tuple
	// (magic-transform base-copy rules); -1 otherwise.
	insertWeightSlot int

	// orders[d] is the join order used when body atom d carries the delta;
	// the delta atom is always orders[d][0].
	orders     [][]atomStep
	orderTexts []string
	text       string
}

// seedFact is a statically known fact the evaluation starts from (magic
// facts whose bound terms are all constants).
type seedFact struct {
	relID int
	tuple []Value
}

// planProgram is a fully compiled program: relations, rules in all their
// delta orders, and — for goal-directed plans — the goal/seed relations and
// the adornment it was specialized for. It is immutable after compilation;
// mutable evaluation state lives in planEval.
type planProgram struct {
	rels   []planRel
	relIDs map[string]int
	rules  []*rulePlan
	seeds  []seedFact

	goalRelID int // adorned goal relation, -1 for whole-program plans
	seedRelID int // magic seed relation for the query constants, -1 if none
	adornment string

	maxSlots   int
	maxWeights int
	maxHead    int
}

// planner interns relations and compiles rules into a planProgram.
type planner struct {
	e    *Engine
	prog *planProgram
	sigs map[string]relSig // private relation schemas, by name
}

func newPlanner(e *Engine) *planner {
	return &planner{
		e: e,
		prog: &planProgram{
			relIDs:    make(map[string]int),
			goalRelID: -1,
			seedRelID: -1,
		},
		sigs: make(map[string]relSig),
	}
}

// declarePrivate registers a plan-private relation schema.
func (p *planner) declarePrivate(name string, arity int, weighted bool) {
	if _, ok := p.sigs[name]; !ok {
		p.sigs[name] = relSig{arity: arity, weighted: weighted}
	}
}

// relID interns a relation by name: engine relations resolve to their base
// relation, private names to their declared schema.
func (p *planner) relID(name string) (int, error) {
	if id, ok := p.prog.relIDs[name]; ok {
		return id, nil
	}
	pr := planRel{name: name}
	if base, ok := p.e.rels[name]; ok {
		pr.arity, pr.weighted, pr.base = base.arity, base.weighted, base
	} else if sig, ok := p.sigs[name]; ok {
		pr.arity, pr.weighted = sig.arity, sig.weighted
	} else {
		return 0, fmt.Errorf("datalog: plan references unknown relation %s", name)
	}
	id := len(p.prog.rels)
	p.prog.rels = append(p.prog.rels, pr)
	p.prog.relIDs[name] = id
	return id, nil
}

// compileRule turns one rule into a rulePlan with a join order per delta
// position and appends it to the program.
func (p *planner) compileRule(rule Rule) error {
	rp := &rulePlan{insertWeightSlot: -1, text: ruleText(rule)}

	// Slot assignment scans the body in written order so every join order of
	// this rule shares one slot layout.
	varSlots := make(map[string]int)
	wSlots := make(map[string]int)
	for _, a := range rule.Body {
		for _, t := range a.Terms {
			if t.Var != "" {
				if _, ok := varSlots[t.Var]; !ok {
					varSlots[t.Var] = len(varSlots)
				}
			}
		}
		if a.WeightVar != "" {
			if _, ok := wSlots[a.WeightVar]; !ok {
				wSlots[a.WeightVar] = len(wSlots)
			}
		}
	}
	rp.nSlots, rp.nWeights = len(varSlots), len(wSlots)

	var err error
	if rp.headRelID, err = p.relID(rule.Head.Pred); err != nil {
		return err
	}
	if p.prog.rels[rp.headRelID].arity != len(rule.Head.Terms) {
		return fmt.Errorf("datalog: head arity mismatch for %s", rule.Head.Pred)
	}
	for _, t := range rule.Head.Terms {
		if t.Var == "" {
			rp.headOps = append(rp.headOps, termOp{kind: opConst, val: t.Const})
			continue
		}
		s, ok := varSlots[t.Var]
		if !ok {
			return fmt.Errorf("datalog: head variable %s unbound in %s", t.Var, rule.Head.Pred)
		}
		rp.headOps = append(rp.headOps, termOp{kind: opCheck, slot: s})
	}

	if rule.Agg != nil {
		ws, ok := wSlots[rule.Agg.WeightVar]
		if !ok {
			return fmt.Errorf("datalog: msum weight variable %s unbound", rule.Agg.WeightVar)
		}
		cs, ok := varSlots[rule.Agg.ContribVar]
		if !ok {
			return fmt.Errorf("datalog: msum contributor variable %s unbound", rule.Agg.ContribVar)
		}
		rp.agg = &aggPlan{weightSlot: ws, contribSlot: cs, threshold: rule.Agg.Threshold}
	}
	if rule.insertWeight != "" {
		ws, ok := wSlots[rule.insertWeight]
		if !ok {
			return fmt.Errorf("datalog: insert weight variable %s unbound", rule.insertWeight)
		}
		rp.insertWeightSlot = ws
	}

	for d := range rule.Body {
		order := planOrder(rule.Body, d)
		steps, err := p.compileSteps(rule, order, varSlots, wSlots)
		if err != nil {
			return err
		}
		rp.orders = append(rp.orders, steps)
		rp.orderTexts = append(rp.orderTexts, orderText(steps))
	}

	p.prog.rules = append(p.prog.rules, rp)
	return nil
}

// planOrder picks the join order for delta position d: the delta atom first
// (the tightest input), then greedily the remaining atom with the most bound
// positions — constants plus variables bound by atoms already placed — so
// each step can probe an index instead of scanning. Ties break toward the
// written order.
func planOrder(body []Atom, d int) []int {
	n := len(body)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(map[string]bool)
	place := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, t := range body[i].Terms {
			if t.Var != "" {
				bound[t.Var] = true
			}
		}
	}
	place(d)
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range body[i].Terms {
				if t.Var == "" || bound[t.Var] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		place(best)
	}
	return order
}

// compileSteps lowers the body atoms, in the given order, to term ops. A
// variable's first occurrence along the order binds its slot; later
// occurrences (including within the same atom) check it. The index position
// is the first bound tuple position — known statically, so evaluation never
// probes for one.
func (p *planner) compileSteps(rule Rule, order []int, varSlots, wSlots map[string]int) ([]atomStep, error) {
	bound := make(map[string]bool)
	steps := make([]atomStep, 0, len(order))
	for stepIdx, ai := range order {
		a := rule.Body[ai]
		relID, err := p.relID(a.Pred)
		if err != nil {
			return nil, err
		}
		rel := p.prog.rels[relID]
		if len(a.Terms) != rel.arity {
			return nil, fmt.Errorf("datalog: body arity mismatch for %s", a.Pred)
		}
		if a.WeightVar != "" && !rel.weighted {
			return nil, fmt.Errorf("datalog: %s is not weighted", a.Pred)
		}
		st := atomStep{relID: relID, weightSlot: -1, indexPos: -1}
		for pos, t := range a.Terms {
			switch {
			case t.Var == "":
				st.ops = append(st.ops, termOp{kind: opConst, val: t.Const})
			case bound[t.Var]:
				st.ops = append(st.ops, termOp{kind: opCheck, slot: varSlots[t.Var]})
			default:
				bound[t.Var] = true
				st.ops = append(st.ops, termOp{kind: opBind, slot: varSlots[t.Var]})
			}
			if st.indexPos < 0 && st.ops[pos].kind != opBind {
				st.indexPos = pos
			}
		}
		if a.WeightVar != "" {
			st.weightSlot = wSlots[a.WeightVar]
		}
		st.text = stepText(a, st, stepIdx == 0)
		steps = append(steps, st)
	}
	return steps, nil
}

// finish computes the shared buffer sizes and returns the program.
func (p *planner) finish() *planProgram {
	for _, rp := range p.prog.rules {
		if rp.nSlots > p.prog.maxSlots {
			p.prog.maxSlots = rp.nSlots
		}
		if rp.nWeights > p.prog.maxWeights {
			p.prog.maxWeights = rp.nWeights
		}
		if len(rp.headOps) > p.prog.maxHead {
			p.prog.maxHead = len(rp.headOps)
		}
	}
	return p.prog
}
