package dist

import (
	"context"
	"flag"
	"fmt"
	"testing"

	"ccp/internal/control"
	"ccp/internal/datalog"
	"ccp/internal/graph"
)

// smallScope makes TestSmallScope run every graph of its scope instead of
// a 1-in-64 stride; scripts/check.sh sets it.
var smallScope = flag.Bool("smallscope", false, "TestSmallScope runs all 32^4 graphs (default: every 64th)")

// quarterCombos lists the 32 ways the three other companies can hold
// quarter stakes (digits 0–3) in one company with in-sum ≤ 1: digits
// summing to at most 4.
func quarterCombos() [][3]int {
	var out [][3]int
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				if a+b+c <= 4 {
					out = append(out, [3]int{a, b, c})
				}
			}
		}
	}
	return out
}

// smallGraph decodes graph number i of the scope: 5 bits per company v
// pick the combo of stakes the other three companies, in id order, hold in
// v. digits[u][v] is the stake u→v in quarters.
func smallGraph(t *testing.T, combos [][3]int, i int) (*graph.Graph, [4][4]int) {
	var digits [4][4]int
	g := graph.New(4)
	for v := 0; v < 4; v++ {
		combo, k := combos[i>>(5*v)&31], 0
		for u := 0; u < 4; u++ {
			if u == v {
				continue
			}
			if digits[u][v] = combo[k]; digits[u][v] > 0 {
				if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(digits[u][v])/4); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
	}
	return g, digits
}

// digitsControl decides control(s, t) from the stake digits alone, with
// integers: the controlled set starts at s and takes in every company whose
// quarters held by the set sum to more than 2, until none is left. It
// shares no code with graph.ExceedsControl.
func digitsControl(digits [4][4]int, s, t int) bool {
	in := [4]bool{}
	in[s] = true
	for grew := true; grew; {
		grew = false
		for v := 0; v < 4; v++ {
			sum := 0
			for u := 0; u < 4; u++ {
				if in[u] {
					sum += digits[u][v]
				}
			}
			if !in[v] && sum > 2 {
				in[v], grew = true, true
			}
		}
	}
	return in[t]
}

// TestSmallScope is ROADMAP item 22's exhaustive check, its centralized
// columns: every ownership graph on 4 companies with stakes in quarters and
// in-sum ≤ 1 (32⁴ = 1 048 576 graphs), asked control(0,1)? — every other
// pair is a relabelling the scope holds. Quarters sum exactly in float64,
// so "exactly ½" is hit exactly. Each graph is asked of an integer column
// that decides control from the stake digits, of control.CBE, of
// datalog.Controls (the threshold comes from its program text), and of
// the frontier Reducer at 1 and 2 workers with termination on and off;
// every column must agree with the integer one. go test runs every 64th
// graph from a rotating offset, so each company meets all 32 of its
// combos; -smallscope runs them all.
func TestSmallScope(t *testing.T) {
	combos := quarterCombos()
	if len(combos) != 32 {
		t.Fatalf("%d combos, want 32", len(combos))
	}
	const total = 1 << 20
	step := 64
	if *smallScope {
		step = 1
	}
	ctx := context.Background()
	red := control.NewReducer()
	q := control.Query{S: 0, T: 1}
	checked := 0
	for k := 0; k*step < total; k++ {
		i := k*step + k%step
		g, digits := smallGraph(t, combos, i)
		want := digitsControl(digits, 0, 1)
		fail := func(column string, got any) {
			t.Helper()
			t.Fatalf("graph %d: control(0,1): %s %v, the stake digits %v\nedges: %v", i, column, got, want, g.Edges())
		}
		if got := control.CBE(g, q); got != want {
			fail("CBE", got)
		}
		if got, err := datalog.Controls(g, 0, 1); err != nil || got != want {
			fail("datalog", fmt.Sprint(got, err))
		}
		for _, workers := range []int{1, 2} {
			for _, off := range []bool{false, true} {
				res, err := red.Reduce(ctx, g.Clone(), q, graph.NewNodeSet(0, 1),
					control.Options{Workers: workers, DisableTermination: off, Trust: control.FullTrust})
				if err != nil || res.Ans == control.Unknown || res.Ans.Bool() != want {
					fail(fmt.Sprintf("Reducer (workers %d, termination off %v)", workers, off), fmt.Sprint(res.Ans, err))
				}
			}
		}
		checked++
	}
	t.Logf("%d graphs, each agreeing in all 7 columns", checked)
}
