// eval.go — the streaming semi-naive evaluator for compiled plans. Joins
// compose as nested iterations over relation.match, which clips stored
// postings to the delta window by binary search and reads a bound graph in
// place; no per-round candidate slices are materialized, and bindings live
// in flat slot buffers reused across the whole run.
//
// Every Run compiles its plan and builds its planEval afresh.
package datalog

import (
	"encoding/binary"
	"sort"
)

// planEval is the mutable state of one evaluation of a planProgram.
type planEval struct {
	prog   *planProgram
	delta  [][2]int
	before []int

	slots   []Value
	wslots  []float64
	headBuf []Value

	aggSum  []map[string]float64
	aggSeen []map[string]bool

	ruleMatches []int // complete body bindings per rule
	ruleDerived []int // new tuples asserted per rule

	iterations int
}

func newPlanEval(p *planProgram) *planEval {
	ev := &planEval{prog: p}
	ev.delta = make([][2]int, len(p.rels))
	ev.before = make([]int, len(p.rels))
	ev.slots = make([]Value, p.maxSlots)
	ev.wslots = make([]float64, p.maxWeights)
	ev.headBuf = make([]Value, p.maxHead)
	ev.aggSum = make([]map[string]float64, len(p.rules))
	ev.aggSeen = make([]map[string]bool, len(p.rules))
	for i := range p.rules {
		ev.aggSum[i] = make(map[string]float64)
		ev.aggSeen[i] = make(map[string]bool)
	}
	ev.ruleMatches = make([]int, len(p.rules))
	ev.ruleDerived = make([]int, len(p.rules))
	return ev
}

// run evaluates the program to fixpoint and returns the number of
// semi-naive rounds.
func (ev *planEval) run() int {
	for i, r := range ev.prog.rels {
		ev.delta[i] = [2]int{0, r.size()}
	}
	for {
		ev.iterations++
		for i, r := range ev.prog.rels {
			ev.before[i] = r.size()
		}
		for ri, rp := range ev.prog.rules {
			ev.evalRule(ri, rp)
		}
		changed := false
		for i, r := range ev.prog.rels {
			ev.delta[i] = [2]int{ev.before[i], r.size()}
			if r.size() > ev.before[i] {
				changed = true
			}
		}
		if !changed {
			return ev.iterations
		}
	}
}

// evalRule runs every delta configuration of one rule: orders[d] leads with
// body atom d restricted to its delta window. Round one is the exception:
// every window then starts at the first tuple, so any single order — with
// the later rounds' deltas — finds every binding, and only the order with
// the narrowest lead runs. A rule never scans a whole graph view only
// because the view is new.
func (ev *planEval) evalRule(ri int, rp *rulePlan) {
	orders := rp.orders
	if ev.iterations == 1 {
		width := func(order []atomStep) int {
			dr := ev.delta[order[0].relID]
			return dr[1] - dr[0]
		}
		best := 0
		for d := range orders {
			if width(orders[d]) < width(orders[best]) {
				best = d
			}
		}
		orders = orders[best : best+1]
	}
	for _, order := range orders {
		dr := ev.delta[order[0].relID]
		if dr[0] == dr[1] {
			continue
		}
		ev.step(ri, rp, order, 0, dr)
	}
}

// step extends the current slot bindings over order[i]; i==0 is the delta
// atom, restricted to [dr[0], dr[1]).
func (ev *planEval) step(ri int, rp *rulePlan, order []atomStep, i int, dr [2]int) {
	if i == len(order) {
		ev.fire(ri, rp)
		return
	}
	st := &order[i]
	rel := ev.prog.rels[st.relID]
	lo, hi := 0, rel.size()
	if i == 0 {
		lo, hi = dr[0], dr[1]
	}
	var v Value
	if st.indexPos >= 0 {
		op := &st.ops[st.indexPos]
		v = op.val
		if op.kind == opCheck {
			v = ev.slots[op.slot]
		}
	}
	rel.match(st.indexPos, v, lo, hi, func(t []Value, w float64) {
		ev.tryTuple(ri, rp, order, i, t, w, dr)
	})
}

// clipRange restricts an ascending postings slice to tuple indices in
// [lo, hi) by binary search, returning a subslice of the original — index
// postings are appended in ascending tuple order, so the delta window is
// never a filtered copy.
func clipRange(idxs []int, lo, hi int) []int {
	if len(idxs) == 0 {
		return idxs
	}
	if lo <= idxs[0] && idxs[len(idxs)-1] < hi {
		return idxs
	}
	from := sort.SearchInts(idxs, lo)
	to := sort.SearchInts(idxs, hi)
	return idxs[from:to]
}

// tryTuple matches one tuple against order[i]'s ops, binding slots on first
// occurrences. Stale slot values from backtracking are harmless: a slot is
// only ever read (opCheck, head, agg) at points that come strictly after its
// opBind in the same order, so every read sees the current iteration's value.
func (ev *planEval) tryTuple(ri int, rp *rulePlan, order []atomStep, i int, tuple []Value, w float64, dr [2]int) {
	st := &order[i]
	for pos := range st.ops {
		op := &st.ops[pos]
		switch op.kind {
		case opConst:
			if tuple[pos] != op.val {
				return
			}
		case opCheck:
			if tuple[pos] != ev.slots[op.slot] {
				return
			}
		default: // opBind
			ev.slots[op.slot] = tuple[pos]
		}
	}
	if st.weightSlot >= 0 {
		ev.wslots[st.weightSlot] = w
	}
	ev.step(ri, rp, order, i+1, dr)
}

// fire processes one complete body binding: plain rules assert the head,
// msum rules accumulate per-group state and assert on threshold crossing.
func (ev *planEval) fire(ri int, rp *rulePlan) {
	ev.ruleMatches[ri]++
	head := ev.headBuf[:len(rp.headOps)]
	for i := range rp.headOps {
		op := &rp.headOps[i]
		if op.kind == opConst {
			head[i] = op.val
		} else {
			head[i] = ev.slots[op.slot]
		}
	}
	rel := ev.prog.rels[rp.headRelID]
	if rp.agg == nil {
		if rel.insert(head, 0) {
			ev.ruleDerived[ri]++
		}
		return
	}
	group := encode(head)
	key := group + "\x00" + encodeOne(ev.slots[rp.agg.contribSlot])
	if ev.aggSeen[ri][key] {
		return // msum counts each contributor once
	}
	ev.aggSeen[ri][key] = true
	ev.aggSum[ri][group] += ev.wslots[rp.agg.weightSlot]
	if ev.aggSum[ri][group] > rp.agg.threshold {
		if rel.insert(head, 0) {
			ev.ruleDerived[ri]++
		}
	}
}

func encodeOne(v Value) string {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return string(buf[:])
}

// Run evaluates all rules to fixpoint bottom-up, deriving into the engine's
// own relations, and returns the number of semi-naive rounds and the
// evaluation explain record. The program is compiled as written — this is
// the executable specification.
func (e *Engine) Run() (int, *Explain) {
	ev := newPlanEval(compile(e))
	iters := ev.run()
	x := buildExplain(ev)
	x.Goal = "fixpoint"
	return iters, x
}

// sortedTuples copies rel's tuples, sorted lexicographically.
func sortedTuples(rel *relation) [][]Value {
	var out [][]Value
	rel.match(-1, 0, 0, rel.size(), func(t []Value, _ float64) {
		out = append(out, append([]Value(nil), t...))
	})
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
