package dist

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// globalMerge is the coordinator's retired merge, kept as the oracle of the
// dense one: the parts, in order, merged with graph.Merge into one graph over
// the global id space.
func globalMerge(parts ...*graph.Graph) *graph.Graph {
	mg := graph.New(0)
	for _, p := range parts {
		mg.Merge(p)
	}
	return mg
}

// reduceMerged runs the coordinator's final reduction on a global-id merge.
func reduceMerged(mg *graph.Graph, q control.Query) (control.Result, error) {
	return control.ParallelReduction(context.Background(), mg, q, graph.NewNodeSet(q.S, q.T),
		control.Options{Workers: 1, Trust: control.FullTrust})
}

// recordedReply is one site reply as the coordinator received it, its graph
// copied before the coordinator merged and released it.
type recordedReply struct {
	site                   int
	ans                    control.Answer
	fromCache, notModified bool
	stats                  control.Stats
	reduced                *graph.Graph
	bytes                  int64
}

// replyRecorder sees every reply the coordinator's sites send, and keeps its
// own global-id copy of each site's cached partial for not-modified replies,
// just as the coordinator keeps its dense one.
type replyRecorder struct {
	mu      sync.Mutex
	replies []recordedReply
	copies  map[int]recordedReply
}

// recordingClient is a SiteClient that records what it returns.
type recordingClient struct {
	SiteClient
	rec *replyRecorder
}

func (c *recordingClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	pa, n, err := c.SiteClient.Evaluate(ctx, q, opts)
	if err != nil {
		return pa, n, err
	}
	r := recordedReply{site: pa.SiteID, ans: pa.Ans, fromCache: pa.FromCache, notModified: pa.NotModified,
		stats: pa.Stats, bytes: n}
	if pa.Reduced != nil {
		r.reduced = pa.Reduced.Clone()
	}
	c.rec.mu.Lock()
	c.rec.replies = append(c.rec.replies, r)
	c.rec.mu.Unlock()
	return pa, n, err
}

// oracle answers the query whose replies were recorded the way the
// coordinator did before its merge went dense — the same fan-in, the
// retired global-id merge, the reduction at global ids — and returns the
// answer with the Metrics the coordinator must report (times left zero).
func (r *replyRecorder) oracle(q control.Query) (bool, Metrics, error) {
	r.mu.Lock()
	replies := r.replies
	r.replies = nil
	r.mu.Unlock()
	m := Metrics{DecidedBy: -1}
	var cached []recordedReply
	var live []*graph.Graph
	decided := control.Unknown
	for _, rp := range replies {
		m.SitesQueried++
		m.Bytes += rp.bytes
		if rp.fromCache {
			m.CacheHits++
		}
		if rp.notModified {
			cp, ok := r.copies[rp.site]
			if !ok {
				return false, m, fmt.Errorf("site %d: not modified without a copy", rp.site)
			}
			m.CoordCacheHits++
			m.Stats.Add(cp.stats)
			cached = append(cached, cp)
			continue
		}
		m.Stats.Add(rp.stats)
		if rp.ans != control.Unknown {
			decided, m.DecidedBy = rp.ans, rp.site
			continue
		}
		if rp.fromCache {
			r.copies[rp.site] = rp
			cached = append(cached, rp)
			continue
		}
		live = append(live, rp.reduced)
	}
	if decided != control.Unknown {
		return decided.Bool(), m, nil
	}
	m.MergedQueries = 1
	// The coordinator merges its copies, then the live partials, each in
	// reply order.
	parts := make([]*graph.Graph, 0, len(cached)+len(live))
	for _, cp := range cached {
		parts = append(parts, cp.reduced)
	}
	parts = append(parts, live...)
	for _, p := range parts {
		m.PartialNodes += p.NumNodes()
		m.PartialEdges += p.NumEdges()
	}
	mg := globalMerge(parts...)
	m.MGraphNodes, m.MGraphEdges = mg.NumNodes(), mg.NumEdges()
	// Merge order must not matter: merged partials never share an edge, so
	// the reverse order gives the same nodes, edges, labels and answer.
	reversed := slices.Clone(parts)
	slices.Reverse(reversed)
	rev := globalMerge(reversed...)
	if !graph.Equal(mg, rev, 0) {
		return false, m, fmt.Errorf("merge in reverse order differs: %v vs %v", rev, mg)
	}
	res, err := reduceMerged(mg, q)
	m.Stats.Add(res.Stats)
	if err != nil {
		return false, m, err
	}
	if res.Ans == control.Unknown {
		return false, m, fmt.Errorf("global merge could not decide %v", q)
	}
	if revRes, err := reduceMerged(rev, q); err != nil || revRes.Ans != res.Ans {
		return false, m, fmt.Errorf("merge in reverse order answers %v (%v), forward %v", revRes.Ans, err, res.Ans)
	}
	return res.Ans.Bool(), m, nil
}

// diffCluster is a coordinator over recording in-process sites, with the
// global graph it partitions kept current as the CBE reference.
type diffCluster struct {
	coord *Coordinator
	rec   *replyRecorder
	g     *graph.Graph
}

func newDiffCluster(tb testing.TB, g *graph.Graph, assign []int, k int, opts Options) *diffCluster {
	tb.Helper()
	pi, err := partition.Split(g, assign, k)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &replyRecorder{copies: make(map[int]recordedReply)}
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		clients[i] = &recordingClient{SiteClient: &LocalClient{Site: NewSite(p, 1), MeasureBytes: true}, rec: rec}
	}
	// Sites answer in client order, so the recorder sees the replies in the
	// order the coordinator reads them.
	opts.Workers, opts.SequentialSites = 1, true
	coord := NewCoordinator(clients, opts)
	if opts.UseCache {
		if err := coord.PrecomputeAll(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return &diffCluster{coord: coord, rec: rec, g: g.Clone()}
}

// check answers q through the coordinator and fails unless the answer equals
// control.CBE on the current global graph and the oracle's, and every Metrics
// field but the times equals the oracle's. It reports whether the query
// reached the merge.
func (c *diffCluster) check(tb testing.TB, tag string, q control.Query) bool {
	tb.Helper()
	got, m, err := c.coord.Answer(context.Background(), q)
	if err != nil {
		tb.Fatalf("%s %v: %v", tag, q, err)
	}
	want, wantM, err := c.rec.oracle(q)
	if err != nil {
		tb.Fatalf("%s %v: oracle: %v", tag, q, err)
	}
	if cbe := control.CBE(c.g, q); got != cbe || want != cbe {
		tb.Fatalf("%s %v: coordinator %v, global merge %v, CBE %v", tag, q, got, want, cbe)
	}
	if gotM := *clearTimes(m); gotM != wantM {
		tb.Fatalf("%s %v: metrics diverged from the global merge:\ndense  %+v\nglobal %+v", tag, q, m, wantM)
	}
	return m.MergedQueries > 0
}

// update applies up through the coordinator and to the reference graph.
func (c *diffCluster) update(tb testing.TB, up StakeUpdate) {
	tb.Helper()
	if err := c.coord.ApplyUpdate(context.Background(), up); err != nil {
		tb.Fatalf("%+v: %v", up, err)
	}
	if up.Remove {
		c.g.RemoveEdge(up.Owner, up.Owned)
	} else if err := c.g.MergeEdge(up.Owner, up.Owned, up.Weight); err != nil {
		tb.Fatal(err)
	}
}

// diffQueries draws one seed's queries over eu: cross-border pairs, pairs
// that a border company really controls across the border, a hub source,
// uniform pairs, and endpoints naming no company.
func diffQueries(eu *gen.EUGraph, rng *rand.Rand) []control.Query {
	g := eu.G
	n := g.Cap()
	other := func(v graph.NodeID) graph.NodeID {
		for {
			t := graph.NodeID(rng.Intn(n))
			if eu.Country[t] != eu.Country[v] {
				return t
			}
		}
	}
	var qs []control.Query
	hub := graph.NodeID(0)
	g.EachNode(func(v graph.NodeID) {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	})
	crossed, witnessed := 0, 0
	for _, e := range g.Edges() {
		v := e.From
		if eu.Country[e.To] == eu.Country[v] {
			continue
		}
		if crossed < 4 && rng.Intn(2) == 0 {
			qs = append(qs, control.Query{S: v, T: other(v)})
			crossed++
		}
		// The lowest company v controls across the border, where there is
		// one, asked of v and of v's own controller.
		across := graph.None
		for c := range control.ControlledSet(g, v) {
			if eu.Country[c] != eu.Country[v] && (across == graph.None || c < across) {
				across = c
			}
		}
		if across != graph.None && witnessed < 4 {
			qs = append(qs, control.Query{S: v, T: across})
			if up := g.DirectController(v); up != graph.None {
				qs = append(qs, control.Query{S: up, T: across})
			}
			witnessed++
		}
	}
	qs = append(qs, control.Query{S: hub, T: other(hub)})
	for i := 0; i < 2; i++ {
		qs = append(qs, control.Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))})
	}
	absent, before := graph.NodeID(n+rng.Intn(5)), graph.NodeID(-1-rng.Intn(5))
	some := graph.NodeID(rng.Intn(n))
	qs = append(qs,
		control.Query{S: absent, T: before},
		control.Query{S: before, T: absent},
		control.Query{S: absent, T: absent},
		control.Query{S: some, T: absent},
		control.Query{S: absent, T: some})
	return qs
}

// diffStake draws an update-mix stake: one company takes a tenth of another
// it holds nothing in, trying cross-border and in-country pairs in turn.
func diffStake(eu *gen.EUGraph, g *graph.Graph, rng *rand.Rand) (StakeUpdate, bool) {
	n := g.Cap()
	for try := 0; try < 50; try++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v || (try%2 == 0) == (eu.Country[u] == eu.Country[v]) ||
			g.HasEdge(u, v) || g.HasEdge(v, u) || g.InSum(v) > 0.8 {
			continue
		}
		return StakeUpdate{Owner: u, Owned: v, Weight: 0.1}, true
	}
	return StakeUpdate{}, false
}

// TestCoordinatorMatchesGlobalMerge is the coordinator differential. Over
// 1 000 seeds of gen.EU in the benchmark's two shapes, scaled down (4 and 16
// countries alternating by seed, out-degree 3, 1% border companies), every
// UseCache × ForcePartial setting, cross-border, witnessed, hub-source,
// uniform and absent-endpoint queries, and stakes added and removed between
// queries, the coordinator's answer must equal control.CBE and the retired
// global-id merge of the same replies, and its Metrics must equal the global
// merge's.
func TestCoordinatorMatchesGlobalMerge(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	shapes := []struct{ countries, nodes int }{{4, 100}, {16, 100}}
	queries, merged, trues := 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		sh := shapes[seed%len(shapes)]
		eu := gen.EU(gen.EUConfig{Countries: sh.countries, NodesPerCountry: sh.nodes,
			InterconnectRate: 0.01, AvgOutDegree: 3, Seed: int64(seed)})
		combo := (seed / len(shapes)) % 4
		opts := Options{UseCache: combo&1 != 0, ForcePartial: combo&2 != 0}
		c := newDiffCluster(t, eu.G, eu.Country, eu.Countries, opts)
		rng := rand.New(rand.NewSource(int64(seed)))
		var added []StakeUpdate
		for i, q := range diffQueries(eu, rng) {
			tag := fmt.Sprintf("seed %d shape %dx%d %+v query %d", seed, sh.countries, sh.nodes, opts, i)
			// An update before every 4th query, added and removed in pairs
			// as update-mix does.
			if i%4 == 3 {
				if len(added) > 0 {
					up := added[0]
					added = added[1:]
					up.Remove = true
					c.update(t, up)
				} else if up, ok := diffStake(eu, c.g, rng); ok {
					c.update(t, up)
					added = append(added, up)
				}
			}
			if c.check(t, tag, q) {
				merged++
				if q.S != q.T && control.CBE(c.g, q) {
					trues++
				}
			}
			queries++
		}
	}
	t.Logf("%d queries, %d merged at the coordinator, %d of those true", queries, merged, trues)
	if merged < seeds || trues < seeds/4 {
		t.Fatalf("too few queries reached the merge (%d) or answered true there (%d)", merged, trues)
	}
}
