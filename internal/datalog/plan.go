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

	// orders[d] is the join order used when body atom d carries the delta;
	// the delta atom is always orders[d][0].
	orders     [][]atomStep
	orderTexts []string
	text       string
}

// planProgram is a fully compiled program: the engine relations its rules
// read or derive, numbered, and the rules in all their delta orders. It is
// immutable after compilation; mutable evaluation state lives in planEval.
type planProgram struct {
	rels   []*relation
	relIDs map[string]int
	rules  []*rulePlan

	maxSlots   int
	maxWeights int
	maxHead    int
}

// compile lowers the engine's rules into a planProgram. AddRule validated
// every rule against the declared relations, and relations are never
// undeclared, so compilation cannot fail.
func compile(e *Engine) *planProgram {
	p := &planProgram{relIDs: make(map[string]int)}
	for _, r := range e.rules {
		rp := p.compileRule(e, r)
		p.rules = append(p.rules, rp)
		p.maxSlots = max(p.maxSlots, rp.nSlots)
		p.maxWeights = max(p.maxWeights, rp.nWeights)
		p.maxHead = max(p.maxHead, len(rp.headOps))
	}
	return p
}

// relID interns an engine relation by name.
func (p *planProgram) relID(e *Engine, name string) int {
	if id, ok := p.relIDs[name]; ok {
		return id
	}
	id := len(p.rels)
	p.rels = append(p.rels, e.rels[name])
	p.relIDs[name] = id
	return id
}

// compileRule turns one rule into a rulePlan with a join order per delta
// position.
func (p *planProgram) compileRule(e *Engine, rule Rule) *rulePlan {
	rp := &rulePlan{headRelID: p.relID(e, rule.Head.Pred), text: ruleText(rule)}

	// Slot assignment scans the body in written order so every join order of
	// this rule shares one slot layout.
	varSlots := make(map[string]int)
	wSlots := make(map[string]int)
	for _, a := range rule.Body {
		for _, t := range a.Terms {
			if _, ok := varSlots[t.Var]; t.Var != "" && !ok {
				varSlots[t.Var] = len(varSlots)
			}
		}
		if _, ok := wSlots[a.WeightVar]; a.WeightVar != "" && !ok {
			wSlots[a.WeightVar] = len(wSlots)
		}
	}
	rp.nSlots, rp.nWeights = len(varSlots), len(wSlots)

	for _, t := range rule.Head.Terms {
		if t.Var == "" {
			rp.headOps = append(rp.headOps, termOp{kind: opConst, val: t.Const})
		} else {
			rp.headOps = append(rp.headOps, termOp{kind: opCheck, slot: varSlots[t.Var]})
		}
	}
	if rule.Agg != nil {
		rp.agg = &aggPlan{
			weightSlot:  wSlots[rule.Agg.WeightVar],
			contribSlot: varSlots[rule.Agg.ContribVar],
			threshold:   rule.Agg.Threshold,
		}
	}
	for d := range rule.Body {
		steps := p.compileSteps(e, rule, planOrder(rule.Body, d), varSlots, wSlots)
		rp.orders = append(rp.orders, steps)
		rp.orderTexts = append(rp.orderTexts, orderText(steps))
	}
	return rp
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
func (p *planProgram) compileSteps(e *Engine, rule Rule, order []int, varSlots, wSlots map[string]int) []atomStep {
	bound := make(map[string]bool)
	steps := make([]atomStep, 0, len(order))
	for stepIdx, ai := range order {
		a := rule.Body[ai]
		st := atomStep{relID: p.relID(e, a.Pred), weightSlot: -1, indexPos: -1}
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
	return steps
}
