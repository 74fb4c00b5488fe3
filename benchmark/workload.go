package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// updateWeight is the stake every AddStake of the update mix takes; targets
// are chosen with at least that much unowned equity left.
const updateWeight = 0.1

// graphSeed generates every workload's graph. The graph is the data set and
// is the same at every -seed; the seed draws the traffic — which companies
// are asked about and which stakes change hands. Regenerating the graph per
// seed moved every metric by 3–17% between seeds (partition sizes, pool
// sizes and the share of queries a site decides all follow the graph), which
// a regression bound cannot tell from a regression.
const graphSeed = 2021

type opKind uint8

const (
	opQuery  opKind = iota // controls(A, B)?
	opAdd                  // A takes updateWeight of B
	opRemove               // A divests its stake in B
)

// op is one position of a workload's operation sequence.
type op struct {
	Kind opKind
	A, B graph.NodeID
}

// workload is everything generated from (spec, seed): the graph handed to
// the program under test and the fixed operation sequence, with the oracle's
// answer for every query position.
type workload struct {
	spec
	seed     int64
	eu       *gen.EUGraph
	ops      []op
	expected []bool // CBE on the mirrored global graph, per op (queries only)
	queries  int
	updates  int

	// setupQuery is the "first correct answer" that ends set-up. It is read
	// off the graph, not drawn: set-up is the same work at every seed.
	setupQuery  control.Query
	setupAnswer bool

	owners, targets int     // pool sizes (0 for the uniform pool)
	trueShare       float64 // share of query positions the oracle answers true
}

// generate builds the workload of sp at the given seed with n queries per
// pass. It is a pure function of its arguments: every slice derived from a
// map is sorted before the seeded generator indexes it, and nothing probes
// the program under test, so an optimisation cannot change its own workload.
//
// Sampling is stratified. A query's cost follows from which of its two home
// sites must copy and reduce their partition, and that is readable off the
// graph (see pairClass); every seed draws different companies but the same
// number of pairs from each class, so the traffic mix belongs to the
// workload and not to the seed.
func generate(sp spec, seed int64, n int) (*workload, error) {
	if sp.updateEvery > 0 {
		// Updates come in add/remove pairs; a whole number of pairs per pass
		// is what returns every pass to the state it began in.
		n -= n % (2 * sp.updateEvery)
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: no queries", sp.name)
	}
	eu := gen.EU(gen.EUConfig{
		Countries:        sp.countries,
		NodesPerCountry:  sp.nodesPerCountry,
		InterconnectRate: sp.interconnect,
		AvgOutDegree:     sp.outDegree,
		Seed:             graphSeed,
	})
	w := &workload{spec: sp, seed: seed, eu: eu}
	w.n = n

	h := fnv.New64a()
	h.Write([]byte(sp.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	pi, err := partition.Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		return nil, err
	}
	var drawQuery func() op
	if sp.pool == crossBorder {
		owners, targets := crossBorderPools(eu.G, pi)
		w.owners, w.targets = len(owners), len(targets)
		// s and t live in different countries — two home sites, both live —
		// and the country pairs come round in an order fixed by the graph:
		// which merged snapshots the coordinator holds when a query arrives
		// is then a property of the workload, whatever the seed.
		byCountry := func(pool []graph.NodeID) [][]graph.NodeID {
			out := make([][]graph.NodeID, eu.Countries)
			for _, v := range pool {
				out[eu.Country[v]] = append(out[eu.Country[v]], v)
			}
			return out
		}
		from, to := byCountry(owners), byCountry(targets)
		held := witnessedPairs(eu, owners)
		var pairs [][2]int
		for cs := range from {
			for ct := range to {
				if cs != ct && len(from[cs]) > 0 && len(to[ct]) > 0 {
					pairs = append(pairs, [2]int{cs, ct})
				}
			}
		}
		if len(pairs) == 0 {
			return nil, fmt.Errorf("workload %s: graph has no cross-border pairs", sp.name)
		}
		order := rand.New(rand.NewSource(graphSeed)).Perm(len(pairs))
		w.setupQuery = control.Query{S: from[pairs[order[0]][0]][0], T: to[pairs[order[0]][1]][0]}
		next := 0
		drawQuery = func() op {
			pair := pairs[order[next%len(order)]]
			next++
			// Every witnessedEvery-th position asks about a stake chain that
			// does cross this border, where the graph has one: almost no
			// pool pair answers true, and an oracle that only ever says
			// "false" would pass a program that does the same.
			if yes := held[pair]; next%witnessedEvery == 0 && len(yes) > 0 {
				q := yes[rng.Intn(len(yes))]
				return op{opQuery, q.S, q.T}
			}
			s, t := from[pair[0]], to[pair[1]]
			return op{opQuery, s[rng.Intn(len(s))], t[rng.Intn(len(t))]}
		}
	} else {
		quota := uniformQuotas(eu, pi, n)
		w.setupQuery = control.Query{S: 0, T: graph.NodeID(eu.G.Cap() - 1)}
		drawQuery = func() op {
			for {
				s, t := graph.NodeID(rng.Intn(eu.G.Cap())), graph.NodeID(rng.Intn(eu.G.Cap()))
				c := pairClass(eu, pi, s, t)
				if quota[c] == 0 {
					continue
				}
				quota[c]--
				// A uniform pair all but never answers true. The one class
				// whose home site can say "true" on its own gives every other
				// draw to a pair that does, so that the answer is checked.
				if c == canHold && quota[c]%2 == 0 {
					if held := controlled(eu, s, true); len(held) > 0 {
						t = held[rng.Intn(len(held))]
					}
				}
				return op{opQuery, s, t}
			}
		}
	}
	// drawPair picks a non-edge (u, v) whose target can still sell
	// updateWeight of itself, within one country for every countries-th pair
	// (the share a uniform draw would give) and across a border otherwise: a
	// cross-border stake moves two sites' epochs, a domestic one only one.
	// Rejection sampling over the pristine graph: pairs never overlap in
	// time, so each sees the graph as generated.
	drawPair := func(pair int) (graph.NodeID, graph.NodeID) {
		domestic := pair%eu.Countries == eu.Countries-1
		for {
			u, v := graph.NodeID(rng.Intn(eu.G.Cap())), graph.NodeID(rng.Intn(eu.G.Cap()))
			if u != v && (eu.Country[u] == eu.Country[v]) == domestic &&
				!eu.G.HasEdge(u, v) && !eu.G.HasEdge(v, u) && eu.G.InSum(v) <= 1-2*updateWeight {
				return u, v
			}
		}
	}

	var u, v graph.NodeID
	for i := 0; i < n; i++ {
		if sp.updateEvery > 0 && i%sp.updateEvery == 0 {
			if w.updates%2 == 0 {
				u, v = drawPair(w.updates / 2)
				w.ops = append(w.ops, op{opAdd, u, v})
			} else {
				w.ops = append(w.ops, op{opRemove, u, v})
			}
			w.updates++
		}
		w.ops = append(w.ops, drawQuery())
	}
	w.queries = n

	// The oracle: replay the sequence on a private mirror of the global
	// graph and answer every query with Control-by-Expansion.
	mirror := eu.G.Clone()
	w.setupAnswer = control.CBE(eu.G, w.setupQuery)
	w.expected = make([]bool, len(w.ops))
	trues := 0
	for i, o := range w.ops {
		switch o.Kind {
		case opQuery:
			w.expected[i] = control.CBE(mirror, control.Query{S: o.A, T: o.B})
			if w.expected[i] {
				trues++
			}
		case opAdd:
			if err := mirror.AddEdge(o.A, o.B, updateWeight); err != nil {
				return nil, fmt.Errorf("workload %s: op %d: %w", sp.name, i, err)
			}
		case opRemove:
			if !mirror.RemoveEdge(o.A, o.B) {
				return nil, fmt.Errorf("workload %s: op %d removes a missing stake", sp.name, i)
			}
		}
	}
	if !graph.Equal(mirror, eu.G, 0) {
		return nil, fmt.Errorf("workload %s: a pass does not restore the graph", sp.name)
	}
	w.trueShare = float64(trues) / float64(w.queries)
	return w, nil
}

// Bits of a pair's class: which home sites cannot answer in O(1).
const (
	sourceLive  = 1 << iota // s holds a controlling stake: T1 cannot fire at its site
	targetOpen              // t may be controlled (majority-held, or an in-node): T2 cannot fire
	sameCountry             // one home site, not two
	pairClasses = 1 << iota // number of classes

	// canHold is the class of every pair within one country whose s controls
	// t: s holds a controlling stake and t is majority-held.
	canHold = sourceLive | targetOpen | sameCountry
)

// pairClass classifies a uniform (s, t) pair by graph structure alone.
func pairClass(eu *gen.EUGraph, pi *partition.Partitioning, s, t graph.NodeID) int {
	c := 0
	if eu.G.HasControllingOut(s) {
		c |= sourceLive
	}
	if pi.Parts[eu.Country[t]].InNodes.Has(t) || graph.ExceedsControl(eu.G.InSum(t)) {
		c |= targetOpen
	}
	if eu.Country[s] == eu.Country[t] {
		c |= sameCountry
	}
	return c
}

// uniformQuotas splits n draws over the pair classes in the proportions a
// uniform draw has in expectation (largest-remainder rounding): s and t are
// independent, so a class's share is the product of its bits' shares.
func uniformQuotas(eu *gen.EUGraph, pi *partition.Partitioning, n int) []int {
	total := float64(eu.G.NumNodes())
	live, open := 0.0, 0.0
	eu.G.EachNode(func(v graph.NodeID) {
		c := pairClass(eu, pi, v, v)
		if c&sourceLive != 0 {
			live++
		}
		if c&targetOpen != 0 {
			open++
		}
	})
	pick := func(set bool, p float64) float64 {
		if set {
			return p
		}
		return 1 - p
	}
	quota := make([]int, pairClasses)
	frac := make([]float64, pairClasses)
	left := n
	for c := range quota {
		share := pick(c&sourceLive != 0, live/total) * pick(c&targetOpen != 0, open/total) *
			pick(c&sameCountry != 0, 1/float64(eu.Countries))
		quota[c] = int(share * float64(n))
		frac[c] = share*float64(n) - float64(quota[c])
		left -= quota[c]
	}
	for ; left > 0; left-- {
		best := 0
		for c := range frac {
			if frac[c] > frac[best] {
				best = c
			}
		}
		quota[best]++
		frac[best] = -1
	}
	return quota
}

// crossBorderPools returns the sorted source and target pools of the
// cross-border rule: sources are companies holding a controlling stake
// across a border themselves, or in either endpoint of a cross edge (their
// control reaches the boundary, which partial reduction must keep, so T1
// cannot fire at their site); targets are in-nodes, whose site cannot trust
// "not controlled" from local knowledge.
func crossBorderPools(g *graph.Graph, pi *partition.Partitioning) (owners, targets []graph.NodeID) {
	set := graph.NewNodeSet()
	for _, ce := range pi.PartitionGraph() {
		if graph.ExceedsControl(ce.Edge.Weight) {
			set.Add(ce.Edge.From)
		}
		for _, end := range []graph.NodeID{ce.Edge.From, ce.Edge.To} {
			g.EachIn(end, func(holder graph.NodeID, wt float64) {
				if graph.ExceedsControl(wt) {
					set.Add(holder)
				}
			})
		}
	}
	for v := range set {
		owners = append(owners, v)
	}
	for _, p := range pi.Parts {
		for v := range p.InNodes {
			targets = append(targets, v)
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return owners, targets
}

// witnessedEvery is the period of the positions that draw a witnessed pair.
const witnessedEvery = 8

// controlled lists, in order, the companies other than s that s controls:
// those of its own country if domestic is set, those abroad otherwise.
func controlled(eu *gen.EUGraph, s graph.NodeID, domestic bool) []graph.NodeID {
	var ts []graph.NodeID
	for t := range control.ControlledSet(eu.G, s) {
		if t != s && (eu.Country[t] == eu.Country[s]) == domestic {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// witnessedPairs lists, by (country of s, country of t), the pairs with s in
// owners and t a company abroad that s controls.
func witnessedPairs(eu *gen.EUGraph, owners []graph.NodeID) map[[2]int][]control.Query {
	held := map[[2]int][]control.Query{}
	for _, s := range owners {
		for _, t := range controlled(eu, s, false) {
			pair := [2]int{eu.Country[s], eu.Country[t]}
			held[pair] = append(held[pair], control.Query{S: s, T: t})
		}
	}
	return held
}

// truncated returns the workload cut to its first n queries (rounded down to
// whole update pairs) — the shorter sequence the traced run repeats.
func (w *workload) truncated(n int) *workload {
	if w.updateEvery > 0 {
		n -= n % (2 * w.updateEvery)
	}
	if n >= w.queries {
		return w
	}
	c := *w
	c.n, c.queries, c.updates = n, 0, 0
	cut := 0
	for c.queries < n {
		if w.ops[cut].Kind == opQuery {
			c.queries++
		} else {
			c.updates++
		}
		cut++
	}
	c.ops, c.expected = w.ops[:cut], w.expected[:cut]
	return &c
}
