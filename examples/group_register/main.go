// Group register scenario: derive the control-group register from a
// national ownership graph — which companies form groups, who heads them,
// and how far each head's control reaches. Central banks publish exactly
// this kind of data product from their company control computations
// (Section VIII-E).
package main

import (
	"fmt"

	"ccp"
)

func main() {
	fmt.Println("generating an Italian-style national graph...")
	g := ccp.GenerateItalian(ccp.ItalianConfig{Nodes: 150_000, Seed: 31})
	fmt.Printf("  %d companies, %d shareholdings\n\n", g.NumNodes(), g.NumEdges())

	groups := ccp.ControlGroups(g)
	fmt.Printf("group register: %d control groups with 2+ members\n", len(groups))
	fmt.Println("largest groups:")
	for _, gr := range groups[:10] {
		fmt.Printf("  head %-8d members %d\n", gr.Head, len(gr.Members))
	}

	// The full controlled set of the biggest head — beyond majority chains,
	// joint minority stakes widen the span of control.
	head := groups[0].Head
	full := ccp.ControlledSet(g, head)
	fmt.Printf("\nhead %d: %d companies by majority chains, %d including joint control\n",
		head, len(groups[0].Members), len(full))

	// The controlled sets of the 50 largest heads.
	top := groups[:min(50, len(groups))]
	total := 0
	for _, gr := range top {
		total += len(ccp.ControlledSet(g, gr.Head)) - 1
	}
	fmt.Printf("top %d heads control %d companies in total\n", len(top), total)
}
