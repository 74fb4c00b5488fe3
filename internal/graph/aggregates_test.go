package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ccp/internal/par"
)

// checkAggregates recomputes every cached per-node aggregate from the
// adjacency maps and compares it against the cache. The in-sum is compared
// with a tolerance far below ControlEps, since the cache accumulates deltas
// incrementally.
func checkAggregates(g *Graph) error {
	for i := range g.alive {
		v := NodeID(i)
		var sum float64
		var big int32
		bigPred := None
		for u, w := range g.in[v] {
			sum += w
			if ExceedsControl(w) {
				big++
				bigPred = u
			}
		}
		var outBig int32
		for _, w := range g.out[v] {
			if ExceedsControl(w) {
				outBig++
			}
		}
		if math.Abs(sum-g.inSum[v]) > 1e-11 {
			return fmt.Errorf("node %d: cached inSum %g, adjacency sums to %g", v, g.inSum[v], sum)
		}
		if big != g.inBig[v] {
			return fmt.Errorf("node %d: cached inBig %d, adjacency has %d", v, g.inBig[v], big)
		}
		if outBig != g.outBig[v] {
			return fmt.Errorf("node %d: cached outBig %d, adjacency has %d", v, g.outBig[v], outBig)
		}
		switch {
		case big == 0:
			if g.bigIn[v] != None {
				return fmt.Errorf("node %d: cached bigIn %d with no controlling stake", v, g.bigIn[v])
			}
		case big == 1:
			if g.bigIn[v] != bigPred {
				return fmt.Errorf("node %d: cached bigIn %d, controlling predecessor is %d", v, g.bigIn[v], bigPred)
			}
		default:
			if w, ok := g.in[v][g.bigIn[v]]; !ok || !ExceedsControl(w) {
				return fmt.Errorf("node %d: cached bigIn %d does not hold a controlling stake", v, g.bigIn[v])
			}
		}
	}
	return nil
}

// checkDeadIDs checks the dead-id invariant that lets a graph be emptied by
// visiting its live nodes only: every dead id in [0, Cap) holds no edges and
// has reset aggregates. It also checks NumNodes against the live flags.
func checkDeadIDs(g *Graph) error {
	live := 0
	for i, ok := range g.alive {
		if ok {
			live++
			continue
		}
		if len(g.out[i]) != 0 || len(g.in[i]) != 0 {
			return fmt.Errorf("dead id %d holds %d out- and %d in-edges", i, len(g.out[i]), len(g.in[i]))
		}
		if g.inSum[i] != 0 || g.inBig[i] != 0 || g.outBig[i] != 0 || g.bigIn[i] != None {
			return fmt.Errorf("dead id %d has aggregates inSum %g inBig %d outBig %d bigIn %d",
				i, g.inSum[i], g.inBig[i], g.outBig[i], g.bigIn[i])
		}
	}
	if live != g.nAlive {
		return fmt.Errorf("NumNodes %d, %d ids alive", g.nAlive, live)
	}
	return nil
}

// TestAggregatesUnderRandomMutations drives every mutator — including the
// batch ones in both application modes — with random operations and
// validates the cached aggregates against a from-scratch recomputation after
// each step.
func TestAggregatesUnderRandomMutations(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		g := New(n)
		check := func(op string) {
			t.Helper()
			if err := checkAggregates(g); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, op, err)
			}
		}
		for step := 0; step < 300; step++ {
			u := NodeID(rng.Intn(g.Cap()))
			v := NodeID(rng.Intn(g.Cap()))
			switch op := rng.Intn(10); {
			case op < 4:
				w := rng.Float64()
				if w == 0 {
					w = 0.5
				}
				_ = g.MergeEdge(u, v, w)
				check("MergeEdge")
			case op < 6:
				w := rng.Float64()
				if w == 0 {
					w = 0.5
				}
				_ = g.AddEdge(u, v, w)
				check("AddEdge")
			case op < 7:
				g.RemoveEdge(u, v)
				check("RemoveEdge")
			case op < 8:
				g.RemoveNode(v)
				check("RemoveNode")
			case op < 9:
				dead := make([]bool, g.Cap())
				for i := 0; i < 3; i++ {
					dead[rng.Intn(g.Cap())] = true
				}
				g.RemoveBatchMetered(randomMeter(rng), victimsOf(dead), dead, 1+rng.Intn(4), nil)
				check("RemoveBatchMetered")
			default:
				g.Revive(NodeID(g.Cap()))
				check("Revive")
			}
		}
		// Contract every directly-controlled node into its controller once.
		rep := make([]NodeID, g.Cap())
		victims := make([]NodeID, 0, g.Cap())
		for i := range rep {
			rep[i] = None
			v := NodeID(i)
			c := g.DirectController(v)
			if c != None && g.DirectController(c) == None {
				rep[v] = c
				victims = append(victims, v)
			}
		}
		g.ContractBatchMetered(randomMeter(rng), victims, rep, 1+rng.Intn(4), nil)
		check("ContractBatchMetered")
	}
}

// randomMeter returns nil or a fresh Meter with equal odds.
func randomMeter(rng *rand.Rand) *par.Meter {
	if rng.Intn(2) == 0 {
		return nil
	}
	return par.NewMeter()
}
