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
	// inline counts the replies the coordinator took inline.
	inline int
}

// recordingClient is a SiteClient that records what it returns, after
// showing each reply to hook, when set, with the site that sent it. A reply
// the hook rejects fails the evaluation with the hook's error.
type recordingClient struct {
	SiteClient
	rec  *replyRecorder
	site *Site
	hook siteHook
}

// siteHook checks one site reply before the coordinator consumes it, given
// the options the site evaluated it under.
type siteHook func(s *Site, q control.Query, opts EvalOptions, pa *PartialAnswer) error

func (c *recordingClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	pa, n, err := c.SiteClient.Evaluate(ctx, q, opts)
	return c.record(q, opts, pa, n, err, false)
}

// evaluateInline forwards the inner client's inline capability, so that the
// differential covers the coordinator's inline path on in-process sites. An
// inline reply is hooked and recorded as Evaluate's are.
func (c *recordingClient) evaluateInline(q control.Query, opts EvalOptions) (*PartialAnswer, int64, error, bool) {
	ie, ok := c.SiteClient.(inlineEvaluator)
	if !ok {
		return nil, 0, nil, false
	}
	pa, n, err, ok := ie.evaluateInline(q, opts)
	if !ok {
		return nil, 0, nil, false
	}
	pa, n, err = c.record(q, opts, pa, n, err, true)
	return pa, n, err, true
}

// record shows one reply to the hook and records it, counting the inline
// ones.
func (c *recordingClient) record(q control.Query, opts EvalOptions, pa *PartialAnswer, n int64, err error, inline bool) (*PartialAnswer, int64, error) {
	if err != nil {
		return pa, n, err
	}
	if c.hook != nil {
		if err := c.hook(c.site, q, opts, pa); err != nil {
			pa.Release()
			return nil, n, err
		}
	}
	r := recordedReply{site: pa.SiteID, ans: pa.Ans, fromCache: pa.FromCache, notModified: pa.NotModified,
		stats: pa.Stats, bytes: n}
	if pa.Reduced != nil {
		r.reduced = pa.Reduced.Clone()
	}
	c.rec.mu.Lock()
	c.rec.replies = append(c.rec.replies, r)
	if inline {
		c.rec.inline++
	}
	c.rec.mu.Unlock()
	return pa, n, nil
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

// refSlice is partition.Slice's definition computed the plain way, on p as
// it stands: one unclipped BFS forward from V^in ∪ {s} and one backward from
// V^virt ∪ {t}, intersected.
func refSlice(p *partition.Partition, s, t graph.NodeID) graph.NodeSet {
	flood := func(from graph.NodeSet, extra graph.NodeID, back bool) graph.NodeSet {
		seen := graph.NewNodeSet()
		var queue []graph.NodeID
		visit := func(v graph.NodeID, _ float64) {
			if p.Local.Alive(v) && !seen.Has(v) {
				seen.Add(v)
				queue = append(queue, v)
			}
		}
		for v := range from {
			visit(v, 0)
		}
		for visit(extra, 0); len(queue) > 0; queue = queue[1:] {
			if back {
				p.Local.EachIn(queue[0], visit)
			} else {
				p.Local.EachOut(queue[0], visit)
			}
		}
		return seen
	}
	fwd, bwd := flood(p.InNodes, s, false), flood(p.Virtual, t, true)
	keep := graph.NewNodeSet()
	for v := range fwd {
		if bwd.Has(v) {
			keep.Add(v)
		}
	}
	return keep
}

// checkSlice is the site-evaluation hook of the differential. A live reply
// to an undecided query, unless ForcePartial, reduces q's slice of the
// site's partition as it stands, and a shipped cached reply reduces the
// partition's core, the slice of a query with no endpoint there: every node
// of the partial lies in that slice, and the partial keeps every node of the
// slice that the reduction may not remove — V^in, V^virt, and s and t when
// the reply is live.
func checkSlice(s *Site, q control.Query, opts EvalOptions, pa *PartialAnswer) error {
	if pa.NotModified || pa.Ans != control.Unknown || (opts.ForcePartial && !pa.FromCache) {
		return nil
	}
	if pa.FromCache {
		q = control.Query{S: graph.None, T: graph.None}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.part
	if pa.Epoch != s.epoch.Load() {
		return fmt.Errorf("site %d %v: reply at epoch %d, site at %d", p.ID, q, pa.Epoch, s.epoch.Load())
	}
	want := refSlice(p, q.S, q.T)
	var err error
	pa.Reduced.EachNode(func(v graph.NodeID) {
		if err == nil && !want.Has(v) {
			err = fmt.Errorf("site %d %v: partial keeps %d, outside the slice %v", p.ID, q, v, want)
		}
	})
	for v := range want {
		excluded := p.InNodes.Has(v) || p.Virtual.Has(v) || v == q.S || v == q.T
		if err == nil && excluded && !pa.Reduced.Alive(v) {
			err = fmt.Errorf("site %d %v: partial lost boundary node %d of the slice %v", p.ID, q, v, want)
		}
	}
	return err
}

// diffCluster is a coordinator over recording sites, with the global graph
// it partitions kept current as the CBE reference. The sites run in-process,
// or with tcp set behind loopback RemoteClients, where shipped partials,
// cached and live, decode into the clients' pools; stop closes them.
type diffCluster struct {
	coord *Coordinator
	rec   *replyRecorder
	g     *graph.Graph
	stops []func()
}

func newDiffCluster(tb testing.TB, g *graph.Graph, assign []int, k int, opts Options, tcp bool, hook siteHook) *diffCluster {
	tb.Helper()
	pi, err := partition.Split(g, assign, k)
	if err != nil {
		tb.Fatal(err)
	}
	c := &diffCluster{rec: &replyRecorder{copies: make(map[int]recordedReply)}, g: g.Clone()}
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		site := NewSite(p, 1)
		var sc SiteClient = &LocalClient{Site: site, MeasureBytes: true}
		if tcp {
			rc, stop := serveTCPSite(tb, site)
			c.stops = append(c.stops, stop)
			sc = rc
		}
		clients[i] = &recordingClient{SiteClient: sc, rec: c.rec, site: site, hook: hook}
	}
	// Sites answer in client order, so the recorder sees the replies in the
	// order the coordinator reads them.
	opts.Workers, opts.SequentialSites = 1, true
	c.coord = NewCoordinator(clients, opts)
	if opts.UseCache {
		if err := c.coord.PrecomputeAll(context.Background()); err != nil {
			c.stop()
			tb.Fatal(err)
		}
	}
	return c
}

func (c *diffCluster) stop() {
	for _, stop := range c.stops {
		stop()
	}
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
// merge's. Every live site reply must have reduced the query's slice, and
// every shipped cached reply the partition's core (checkSlice). Every 10th
// seed's sites answer over loopback TCP.
func TestCoordinatorMatchesGlobalMerge(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	shapes := []struct{ countries, nodes int }{{4, 100}, {16, 100}}
	queries, merged, trues, inline, replies := 0, 0, 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		sh := shapes[seed%len(shapes)]
		eu := gen.EU(gen.EUConfig{Countries: sh.countries, NodesPerCountry: sh.nodes,
			InterconnectRate: 0.01, AvgOutDegree: 3, Seed: int64(seed)})
		combo := (seed / len(shapes)) % 4
		opts := Options{UseCache: combo&1 != 0, ForcePartial: combo&2 != 0}
		// Every 10th seed goes over loopback TCP, even seeds and odd ones
		// by turns so that both shapes and every setting get there.
		tcp := seed%10 == (seed/10)%2
		c := newDiffCluster(t, eu.G, eu.Country, eu.Countries, opts, tcp, checkSlice)
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
			replies += eu.Countries
		}
		inline += c.rec.inline
		c.stop()
	}
	t.Logf("%d queries, %d merged at the coordinator, %d of those true; %d of %d site replies taken inline",
		queries, merged, trues, inline, replies)
	if merged < seeds || trues < seeds/4 {
		t.Fatalf("too few queries reached the merge (%d) or answered true there (%d)", merged, trues)
	}
	if inline < replies/4 {
		t.Fatalf("only %d of %d site replies were taken inline", inline, replies)
	}
}
