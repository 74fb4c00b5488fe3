// Package experiments regenerates every figure and table of the paper's
// evaluation (Section VIII) on synthetic graphs: the distribution sweeps of
// Figure 8, the network-traffic table, the RIAD and serial-baseline
// comparisons, and the Neo4j-substitute path-enumeration runs of Figure 9.
//
// The paper ran on a 32-hyper-thread Xeon server with graphs of 4–40M
// edges; the default sizes here are scaled down (see Config.Scale) so a full
// sweep finishes in minutes on a laptop. The claims under reproduction are
// shapes — linearity, who wins, crossovers — not absolute seconds.
package experiments

import (
	"math/rand"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies every default graph size. 1.0 is the package
	// default (laptop-friendly); the paper's sizes correspond to roughly
	// Scale 100.
	Scale float64
	// Seed makes runs deterministic.
	Seed int64
	// Workers bounds intra-site parallelism (0 = GOMAXPROCS).
	Workers int
	// Repeats averages each timed point over this many runs (default 1).
	Repeats int
	// PathBudget bounds each Figure 9 path-enumeration run (default
	// DefaultPathBudget); crossing it marks the point DNF.
	PathBudget time.Duration
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.PathBudget <= 0 {
		c.PathBudget = DefaultPathBudget
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// timeIt runs fn repeats times and returns the average duration.
func timeIt(repeats int, fn func()) time.Duration {
	var total time.Duration
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		total += time.Since(start)
	}
	return total / time.Duration(repeats)
}

// pickQuery chooses a non-trivial query on g: a source with controlling
// stakes (so T1 does not fire immediately) and a controllable target (so T2
// does not fire), preferring endpoints far apart in the id space.
func pickQuery(g *graph.Graph, rng *rand.Rand) control.Query {
	n := g.Cap()
	pick := func(pred func(graph.NodeID) bool, fallbackLow bool) graph.NodeID {
		for attempt := 0; attempt < 200; attempt++ {
			var v graph.NodeID
			if fallbackLow {
				v = graph.NodeID(rng.Intn(n/4 + 1))
			} else {
				v = graph.NodeID(n - 1 - rng.Intn(n/4+1))
			}
			if g.Alive(v) && pred(v) {
				return v
			}
		}
		return graph.NodeID(rng.Intn(n))
	}
	s := pick(func(v graph.NodeID) bool {
		ok := false
		g.EachOut(v, func(u graph.NodeID, w float64) {
			if graph.ExceedsControl(w) {
				ok = true
			}
		})
		return ok
	}, true)
	t := pick(func(v graph.NodeID) bool {
		return graph.ExceedsControl(g.InSum(v))
	}, false)
	return control.Query{S: s, T: t}
}

// pickHubQuery chooses a supervision-style query: the source is the largest
// shareholder of the graph (the kind of holding company a central bank asks
// about, whose controlled set is big), the target a controllable company far
// from it in the id space.
func pickHubQuery(g *graph.Graph, rng *rand.Rand) control.Query {
	n := g.Cap()
	best, bestDeg := graph.NodeID(0), -1
	g.EachNode(func(v graph.NodeID) {
		if d := g.OutDegree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	})
	for attempt := 0; attempt < 200; attempt++ {
		t := graph.NodeID(n - 1 - rng.Intn(n/4+1))
		if g.Alive(t) && t != best && graph.ExceedsControl(g.InSum(t)) {
			return control.Query{S: best, T: t}
		}
	}
	return control.Query{S: best, T: graph.NodeID(rng.Intn(n))}
}
