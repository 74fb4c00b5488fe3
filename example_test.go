package ccp_test

import (
	"context"
	"fmt"
	"sort"

	"ccp"
)

// The quickstart of the README: direct and indirect control.
func ExampleControls() {
	g := ccp.NewGraph(4)
	g.AddEdge(0, 1, 0.60) // 0 owns 60% of 1
	g.AddEdge(0, 2, 0.55) // 0 owns 55% of 2
	g.AddEdge(1, 3, 0.30) // 1 owns 30% of 3
	g.AddEdge(2, 3, 0.25) // 2 owns 25% of 3

	fmt.Println(ccp.Controls(g, 0, 3)) // via controlled 1 and 2: 30+25 > 50
	fmt.Println(ccp.Controls(g, 1, 3)) // 30% alone is not control
	// Output:
	// true
	// false
}

func ExampleControlledSet() {
	g := ccp.NewGraph(3)
	g.AddEdge(0, 1, 0.7)
	g.AddEdge(1, 2, 0.7)

	set := ccp.ControlledSet(g, 0)
	ids := make([]int, 0, len(set))
	for v := range set {
		ids = append(ids, int(v))
	}
	sort.Ints(ids)
	fmt.Println(ids)
	// Output:
	// [0 1 2]
}

func ExampleExplain() {
	g := ccp.NewGraph(4)
	g.AddEdge(0, 1, 0.60)
	g.AddEdge(0, 2, 0.55)
	g.AddEdge(1, 3, 0.30)
	g.AddEdge(2, 3, 0.25)

	steps, ok := ccp.Explain(g, 0, 3)
	fmt.Println(ok, len(steps))
	last := steps[len(steps)-1]
	fmt.Printf("company %d via %d stakes totalling %.0f%%\n",
		last.Company, len(last.Stakes), last.Total*100)
	// Output:
	// true 3
	// company 3 via 2 stakes totalling 55%
}

func ExampleReduce() {
	g := ccp.NewGraph(5)
	g.AddEdge(0, 1, 0.9) // chain of majorities
	g.AddEdge(1, 2, 0.8)
	g.AddEdge(2, 3, 0.7)
	g.AddEdge(3, 4, 0.6)

	res, _ := ccp.Reduce(context.Background(), g, 0, 4, nil, 1)
	fmt.Println(res.Decided, res.Controls)
	fmt.Println(res.Reduced.NumNodes()) // only s and t survive
	// Output:
	// true true
	// 2
}

func ExampleControlGroups() {
	g := ccp.NewGraph(4)
	g.AddEdge(0, 1, 0.6)
	g.AddEdge(1, 2, 0.6)

	for _, gr := range ccp.ControlGroups(g) {
		fmt.Println(gr.Head, gr.Members)
	}
	// Output:
	// 0 [0 1 2]
}
