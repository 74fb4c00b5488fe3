// Package mcvp implements the Monotone Circuit Value Problem and its
// logspace reduction to the Company Control Problem — the construction
// behind Theorem 2 of the paper (CCP is P-complete). Besides documenting the
// hardness proof executably, the reduction doubles as a pathological
// workload generator: the produced ownership graphs are sparse (< 3 edges
// per node), acyclic, and exercise deep control chains.
package mcvp

import (
	"fmt"
	"math/rand"

	"ccp/internal/graph"
)

// Kind distinguishes the gate types of a monotone circuit.
type Kind uint8

const (
	// Input is a constant-input gate carrying a Boolean value.
	Input Kind = iota
	// And is a binary conjunction gate.
	And
	// Or is a binary disjunction gate.
	Or
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case And:
		return "and"
	case Or:
		return "or"
	}
	return "?"
}

// Gate is one gate of a monotone circuit. And/Or gates read gates A and B,
// which must have smaller indices (the circuit is given in topological
// order). Input gates carry Value.
type Gate struct {
	Kind  Kind
	A, B  int
	Value bool
}

// Circuit is a monotone Boolean circuit in topological order. The value of
// the circuit is the value of gate Output.
type Circuit struct {
	Gates  []Gate
	Output int
}

// validate checks topological order and gate arities.
func (c *Circuit) validate() error {
	if len(c.Gates) == 0 {
		return fmt.Errorf("mcvp: empty circuit")
	}
	if c.Output < 0 || c.Output >= len(c.Gates) {
		return fmt.Errorf("mcvp: output gate %d out of range", c.Output)
	}
	for i, g := range c.Gates {
		switch g.Kind {
		case Input:
		case And, Or:
			if g.A < 0 || g.A >= i || g.B < 0 || g.B >= i {
				return fmt.Errorf("mcvp: gate %d reads (%d,%d), not topologically ordered", i, g.A, g.B)
			}
		default:
			return fmt.Errorf("mcvp: gate %d has unknown kind %d", i, g.Kind)
		}
	}
	return nil
}

// Eval computes the circuit value directly (the P-complete problem solved
// the obvious sequential way).
func (c *Circuit) Eval() (bool, error) {
	if err := c.validate(); err != nil {
		return false, err
	}
	val := make([]bool, len(c.Gates))
	for i, g := range c.Gates {
		switch g.Kind {
		case Input:
			val[i] = g.Value
		case And:
			val[i] = val[g.A] && val[g.B]
		case Or:
			val[i] = val[g.A] || val[g.B]
		}
	}
	return val[c.Output], nil
}

// ToCCP performs the logspace reduction of Theorem 2 (Figure 2): it maps the
// circuit to an ownership graph G with a source company s and a target
// company t such that s controls t in G if and only if the circuit value is
// true.
//
// Gate i becomes company i; company len(Gates) is the extra vertex s; t is
// the output gate's company. Per the construction:
//
//   - input gate with value 1: edge (s, v) labeled 1;
//   - and-gate v with inputs a, b: edges (a, v) and (b, v) labeled 0.5
//     (s must control both to control v);
//   - or-gate v with inputs a, b: edge (s, v) labeled 0.4 plus edges (a, v),
//     (b, v) labeled 0.2 (s must control at least one input).
//
// Gates wired to the same input twice (a == b) get their edges merged by
// label summing, which preserves the and/or semantics.
func ToCCP(c *Circuit) (g *graph.Graph, s, t graph.NodeID, err error) {
	if err := c.validate(); err != nil {
		return nil, graph.None, graph.None, err
	}
	g = graph.New(len(c.Gates) + 1)
	s = graph.NodeID(len(c.Gates))
	t = graph.NodeID(c.Output)
	for i, gate := range c.Gates {
		v := graph.NodeID(i)
		switch gate.Kind {
		case Input:
			if gate.Value {
				if err := g.MergeEdge(s, v, 1); err != nil {
					return nil, graph.None, graph.None, err
				}
			}
		case And:
			for _, in := range []int{gate.A, gate.B} {
				if err := g.MergeEdge(graph.NodeID(in), v, 0.5); err != nil {
					return nil, graph.None, graph.None, err
				}
			}
		case Or:
			if err := g.MergeEdge(s, v, 0.4); err != nil {
				return nil, graph.None, graph.None, err
			}
			for _, in := range []int{gate.A, gate.B} {
				if err := g.MergeEdge(graph.NodeID(in), v, 0.2); err != nil {
					return nil, graph.None, graph.None, err
				}
			}
		}
	}
	return g, s, t, nil
}

// Random generates a valid random monotone circuit with n gates: a prefix of
// input gates followed by random and/or gates reading earlier gates. The
// output is the last gate.
func Random(n int, rng *rand.Rand) *Circuit {
	if n < 1 {
		n = 1
	}
	inputs := 1 + n/4
	if inputs > n {
		inputs = n
	}
	c := &Circuit{Gates: make([]Gate, n), Output: n - 1}
	for i := 0; i < n; i++ {
		if i < inputs {
			c.Gates[i] = Gate{Kind: Input, Value: rng.Intn(2) == 1}
			continue
		}
		k := And
		if rng.Intn(2) == 1 {
			k = Or
		}
		c.Gates[i] = Gate{Kind: k, A: rng.Intn(i), B: rng.Intn(i)}
	}
	return c
}
