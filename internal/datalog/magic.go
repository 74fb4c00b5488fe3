// magic.go — the magic-sets transform behind Engine.Query. For a goal
// pred^adornment (b = bound by a query constant, f = free) the program is
// rewritten so the fixpoint derives only tuples relevant to the bound
// constants:
//
//   - each adorned predicate p^a gets a private relation plus, when a has
//     bound positions, a magic relation m^p^a holding the demanded bindings
//     (arity = number of bound positions);
//   - a base-copy rule p^a(v...) :- m^p^a(bound v...), p(v...) imports facts
//     asserted into the IDB relation itself (weights preserved via
//     Rule.insertWeight), restricted to demanded bindings;
//   - every original rule for p becomes a magic-guarded adorned rule: the
//     magic atom leads, the body follows the sideways information passing
//     order (greedy bound-prefix, same heuristic the planner uses), and IDB
//     subgoals are replaced by their adorned versions;
//   - each IDB subgoal with bound positions gets a magic rule deriving its
//     demand from the guard plus the body prefix before it. A magic rule
//     whose bound terms are all constants and whose prefix is empty becomes
//     a static seed fact; the degenerate m^p^a :- m^p^a self-rule is
//     dropped.
//
// The query's own constants are not part of the plan: they are inserted into
// the goal's magic relation at evaluation time, so the rewrite depends on the
// adornment alone.
//
// The msum aggregate is copied unchanged onto the adorned rule. That is
// sound here because msum groups by the head variables, which include every
// bound variable: the magic restriction filters whole groups, never
// individual contributors of a surviving group.
package datalog

import (
	"fmt"
	"strings"
)

type adornedPred struct {
	pred  string
	adorn string
}

func adornedName(pred, ad string) string { return pred + "^" + ad }
func magicName(pred, ad string) string   { return "m^" + pred + "^" + ad }
func boundCount(ad string) int           { return strings.Count(ad, "b") }

type magicCtx struct {
	e *Engine
	p *planner

	idb      map[string]bool
	done     map[string]bool // adorned preds already expanded
	ruleSigs map[string]bool // emitted rule signatures (dedup)
	queue    []adornedPred
	rules    []Rule
	seeds    []struct {
		name  string
		tuple []Value
	}
}

// magicTransform rewrites the engine's program for the goal pred^adorn and
// compiles the result into p's program.
func magicTransform(e *Engine, p *planner, pred, adorn string) error {
	m := &magicCtx{
		e:        e,
		p:        p,
		idb:      make(map[string]bool),
		done:     make(map[string]bool),
		ruleSigs: make(map[string]bool),
	}
	for _, r := range e.rules {
		m.idb[r.Head.Pred] = true
	}
	if !m.idb[pred] {
		return fmt.Errorf("datalog: %s is not derived by any rule", pred)
	}
	m.request(pred, adorn)
	for len(m.queue) > 0 {
		ap := m.queue[0]
		m.queue = m.queue[1:]
		if err := m.expand(ap); err != nil {
			return err
		}
	}
	for _, r := range m.rules {
		if err := p.compileRule(r); err != nil {
			return err
		}
	}
	prog := p.prog
	gid, err := p.relID(adornedName(pred, adorn))
	if err != nil {
		return err
	}
	prog.goalRelID = gid
	if boundCount(adorn) > 0 {
		sid, err := p.relID(magicName(pred, adorn))
		if err != nil {
			return err
		}
		prog.seedRelID = sid
	}
	prog.adornment = adorn
	for _, s := range m.seeds {
		id, err := p.relID(s.name)
		if err != nil {
			return err
		}
		prog.seeds = append(prog.seeds, seedFact{relID: id, tuple: s.tuple})
	}
	return nil
}

// request declares the private relations for pred^ad and queues it for
// expansion, once.
func (m *magicCtx) request(pred, ad string) {
	key := adornedName(pred, ad)
	if m.done[key] {
		return
	}
	m.done[key] = true
	base := m.e.rels[pred]
	m.p.declarePrivate(key, base.arity, base.weighted)
	if n := boundCount(ad); n > 0 {
		m.p.declarePrivate(magicName(pred, ad), n, false)
	}
	m.queue = append(m.queue, adornedPred{pred: pred, adorn: ad})
}

// expand emits the base-copy rule and the adorned versions of every rule
// deriving pred.
func (m *magicCtx) expand(ap adornedPred) error {
	pred, ad := ap.pred, ap.adorn
	base := m.e.rels[pred]

	vars := make([]Term, base.arity)
	for i := range vars {
		vars[i] = V(fmt.Sprintf("v%d", i))
	}
	var body []Atom
	if boundCount(ad) > 0 {
		body = append(body, Atom{Pred: magicName(pred, ad), Terms: boundTerms(vars, ad)})
	}
	baseAtom := Atom{Pred: pred, Terms: vars}
	copyRule := Rule{Head: Atom{Pred: adornedName(pred, ad), Terms: vars}}
	if base.weighted {
		baseAtom.WeightVar = "w$copy"
		copyRule.insertWeight = "w$copy"
	}
	copyRule.Body = append(body, baseAtom)
	m.emit(copyRule)

	for _, r := range m.e.rules {
		if r.Head.Pred != pred {
			continue
		}
		if err := m.transformRule(r, pred, ad); err != nil {
			return err
		}
	}
	return nil
}

// transformRule emits the magic-guarded adorned version of one rule and the
// magic rules deriving demand for its IDB subgoals.
func (m *magicCtx) transformRule(r Rule, pred, ad string) error {
	boundVars := make(map[string]bool)
	for i, t := range r.Head.Terms {
		if ad[i] == 'b' && t.Var != "" {
			boundVars[t.Var] = true
		}
	}

	order := sipsOrder(r.Body, boundVars)

	var newBody []Atom
	if boundCount(ad) > 0 {
		newBody = append(newBody, Atom{Pred: magicName(pred, ad), Terms: boundTerms(r.Head.Terms, ad)})
	}
	bound := make(map[string]bool, len(boundVars))
	for v := range boundVars {
		bound[v] = true
	}
	for _, ai := range order {
		a := r.Body[ai]
		if m.idb[a.Pred] {
			subAd := adornAtom(a, bound)
			m.request(a.Pred, subAd)
			if boundCount(subAd) > 0 {
				mh := Atom{Pred: magicName(a.Pred, subAd), Terms: boundTerms(a.Terms, subAd)}
				if len(newBody) == 0 {
					// No guard and no prefix: the bound terms are all
					// constants, so demand is a static seed fact.
					seed := make([]Value, len(mh.Terms))
					for i, t := range mh.Terms {
						seed[i] = t.Const
					}
					m.addSeed(mh.Pred, seed)
				} else {
					mBody := make([]Atom, len(newBody))
					copy(mBody, newBody)
					m.emitMagic(mh, mBody)
				}
			}
			a.Pred = adornedName(a.Pred, subAd)
		}
		newBody = append(newBody, a)
		for _, t := range a.Terms {
			if t.Var != "" {
				bound[t.Var] = true
			}
		}
	}

	m.emit(Rule{
		Head: Atom{Pred: adornedName(pred, ad), Terms: r.Head.Terms},
		Body: newBody,
		Agg:  r.Agg,
	})
	return nil
}

// sipsOrder is the sideways-information-passing order: greedily pick the
// atom with the most bound positions given the head's bound variables and
// the atoms already placed (ties toward written order) — the same heuristic
// planOrder uses, so the adorned body is already in its preferred join
// order.
func sipsOrder(body []Atom, headBound map[string]bool) []int {
	n := len(body)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(map[string]bool, len(headBound))
	for v := range headBound {
		bound[v] = true
	}
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
		order = append(order, best)
		used[best] = true
		for _, t := range body[best].Terms {
			if t.Var != "" {
				bound[t.Var] = true
			}
		}
	}
	return order
}

// adornAtom computes an atom's adornment under the current bound set.
func adornAtom(a Atom, bound map[string]bool) string {
	b := make([]byte, len(a.Terms))
	for i, t := range a.Terms {
		if t.Var == "" || bound[t.Var] {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return string(b)
}

// boundTerms projects terms down to the adornment's bound positions.
func boundTerms(terms []Term, ad string) []Term {
	out := make([]Term, 0, boundCount(ad))
	for i, t := range terms {
		if ad[i] == 'b' {
			out = append(out, t)
		}
	}
	return out
}

func (m *magicCtx) emit(r Rule) {
	sig := ruleText(r)
	if m.ruleSigs[sig] {
		return
	}
	m.ruleSigs[sig] = true
	m.rules = append(m.rules, r)
}

// emitMagic emits a magic rule, dropping the degenerate self-recursive form
// m^p^a(x) :- m^p^a(x) that a rule recursing on its own adornment produces.
func (m *magicCtx) emitMagic(head Atom, body []Atom) {
	if len(body) == 1 && atomText(body[0]) == atomText(head) {
		return
	}
	m.emit(Rule{Head: head, Body: body})
}

func (m *magicCtx) addSeed(name string, tuple []Value) {
	m.seeds = append(m.seeds, struct {
		name  string
		tuple []Value
	}{name: name, tuple: tuple})
}
