package dist

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ccp/internal/control"
	"ccp/internal/datalog"
	"ccp/internal/graph"
	"ccp/internal/mcvp"
	"ccp/internal/partition"
)

// circuits is the number of random monotone circuits TestCircuitOracle
// runs; scripts/check.sh raises it.
var circuits = flag.Int("circuits", 0, "random monotone circuits TestCircuitOracle runs (0: 500, or 100 under -short or -race)")

// circuitString prints c one gate a line, for a failing seed's report.
func circuitString(c *mcvp.Circuit) string {
	var b strings.Builder
	for i, g := range c.Gates {
		switch g.Kind {
		case mcvp.Input:
			fmt.Fprintf(&b, "%d: input %v\n", i, g.Value)
		default:
			fmt.Fprintf(&b, "%d: %v(%d, %d)\n", i, g.Kind, g.A, g.B)
		}
	}
	fmt.Fprintf(&b, "output %d", c.Output)
	return b.String()
}

// TestCircuitOracle checks every engine against Theorem 2 (Section IV,
// Fig. 2): mcvp.ToCCP maps a monotone circuit to an ownership graph in
// which s controls t iff the circuit is true, and mcvp's evaluator shares
// no code with any engine, so a fault in the control predicate every
// engine and CBE share cannot move the oracle with them. Each circuit of
// 2–301 gates is asked of control.CBE, of the frontier Reducer at 1 and 2
// workers with termination on and off, of datalog.Controls, and of a
// coordinator over 2–4 sites the companies are assigned to at random, with
// the cache on or off by turns and one circuit in ten over loopback TCP.
// Between the coordinator's four queries an input gate flips, which is one
// stake s → input of weight 1 added or removed through
// Coordinator.ApplyUpdate, so cross flips take the update path.
func TestCircuitOracle(t *testing.T) {
	n := *circuits
	switch {
	case n > 0:
	case testing.Short() || raceEnabled:
		n = 100
	default:
		n = 500
	}
	ctx := context.Background()
	merged, answers := 0, 0
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := mcvp.Random(2+rng.Intn(300), rng)
		g, s, tt, err := mcvp.ToCCP(c)
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + rng.Intn(3)
		assign := make([]int, g.Cap())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		opts := Options{UseCache: seed%2 == 1, Workers: 1}
		tcp := seed%10 == (seed/10)%2
		q := control.Query{S: s, T: tt}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("circuit %d (%d sites, cache %v, tcp %v): %s\ncircuit:\n%s\nsite of each company: %v",
				seed, k, opts.UseCache, tcp, fmt.Sprintf(format, args...), circuitString(c), assign)
		}
		want, err := c.Eval()
		if err != nil {
			t.Fatal(err)
		}
		if got := control.CBE(g, q); got != want {
			fail("CBE %v, circuit %v", got, want)
		}
		for _, workers := range []int{1, 2} {
			for _, off := range []bool{false, true} {
				res, err := control.NewReducer().Reduce(ctx, g.Clone(), q, graph.NewNodeSet(s, tt),
					control.Options{Workers: workers, DisableTermination: off, Trust: control.FullTrust})
				if err != nil || res.Ans == control.Unknown || res.Ans.Bool() != want {
					fail("Reducer (workers %d, termination off %v) %v, %v; circuit %v", workers, off, res.Ans, err, want)
				}
			}
		}
		if got, err := datalog.Controls(g, s, tt); err != nil || got != want {
			fail("datalog %v, %v; circuit %v", got, err, want)
		}

		pi, err := partition.Split(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]SiteClient, k)
		var stops []func()
		for i, p := range pi.Parts {
			site := NewSite(p, 1)
			clients[i] = &LocalClient{Site: site}
			if tcp {
				rc, stop := serveTCPSite(t, site)
				clients[i], stops = rc, append(stops, stop)
			}
		}
		coord := NewCoordinator(clients, opts)
		var inputs []int
		for i, gate := range c.Gates {
			if gate.Kind == mcvp.Input {
				inputs = append(inputs, i)
			}
		}
		for query := 0; query < 4; query++ {
			if query > 0 {
				i := inputs[rng.Intn(len(inputs))]
				c.Gates[i].Value = !c.Gates[i].Value
				up := StakeUpdate{Owner: s, Owned: graph.NodeID(i), Weight: 1, Remove: !c.Gates[i].Value}
				if err := coord.ApplyUpdate(ctx, up); err != nil {
					fail("flip of input %d: %v", i, err)
				}
				if want, err = c.Eval(); err != nil {
					t.Fatal(err)
				}
			}
			got, m, err := coord.Answer(ctx, q)
			if err != nil || got != want {
				fail("coordinator after %d flips %v, %v; circuit %v", query, got, err, want)
			}
			answers++
			merged += m.MergedQueries
		}
		for _, stop := range stops {
			stop()
		}
	}
	t.Logf("%d circuits, %d coordinator answers, %d of them merged", n, answers, merged)
}
