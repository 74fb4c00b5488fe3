package dist

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/store"
)

// SiteClient is the coordinator's handle to one worker site, local or
// remote. Implementations must be safe for concurrent use: the batch
// scheduler keeps several queries in flight, so one client may carry many
// overlapping calls (RemoteClient multiplexes them over one connection).
// Every call takes a context: cancellation and deadlines propagate to the
// site (over the wire for remote clients) and surface as typed
// CancelledError / DeadlineError values.
type SiteClient interface {
	// SiteID returns the partition id served by the site.
	SiteID() int
	// Members returns the companies stored at the site, ascending. The
	// coordinator reads it once, at construction, to route updates.
	Members() []graph.NodeID
	// Evaluate posts q to the site and returns its partial answer together
	// with the bytes that crossed the transport for this exchange.
	Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error)
	// Precompute asks the site to build its query-independent reduction
	// offline.
	Precompute(ctx context.Context) error
	// Apply offers rec to the site as a new write (its Seq is ignored); see
	// Site.Apply.
	Apply(ctx context.Context, rec store.Record) (UpdateResult, error)
}

// inlineEvaluator is the capability of a site client that can answer the
// calls costing its site no work — a revalidation, the warm cache, a T1–T3
// decision — on the caller's goroutine, reporting ok false for any other
// call. The coordinator asks it first and spawns a goroutine only for the
// calls it declines: a goroutine per site costs more than such a call. A
// LocalClient has it; a RemoteClient, whose every call is a round trip,
// does not, and neither does a wrapper that embeds a SiteClient.
type inlineEvaluator interface {
	evaluateInline(q control.Query, opts EvalOptions) (pa *PartialAnswer, n int64, err error, ok bool)
}

// Options configures one distributed query evaluation.
type Options struct {
	// UseCache serves partial answers of sites not storing s or t from
	// their query-independent caches (Figure 6's setting).
	UseCache bool
	// ForcePartial makes every site return its reduced partition instead of
	// an early answer, exercising the full merge pipeline (measurement
	// runs).
	ForcePartial bool
	// SequentialSites queries the sites one at a time instead of
	// concurrently. In a real deployment every site is its own machine, so
	// concurrency costs nothing; when all sites share one process on a
	// small host, concurrent evaluation inflates each site's measured time
	// through time sharing. Measurement runs set this so that
	// Metrics.SiteElapsedMax reflects true per-site compute.
	SequentialSites bool
	// Workers is the coordinator-side reduction parallelism.
	Workers int
	// Concurrency is the number of batch queries AnswerBatch keeps in
	// flight. <= 1 evaluates the batch serially, preserving the exact
	// behavior (answers and byte accounting) of the serial coordinator.
	Concurrency int
	// AdmissionGate, when non-nil, is consulted before every query starts:
	// an admitted query holds its slot until it finishes, a shed query fails
	// immediately with an *OverloadError and never reaches the sites. Shed
	// queries are counted separately (ccp_queries_shed_total) and excluded
	// from the latency histograms so overload does not masquerade as fast
	// queries. Nil admits everything.
	AdmissionGate AdmissionGate
	// Observer, when non-nil, streams coordinator metrics (latency
	// histograms, per-phase timings, cache hit/miss counters) into its
	// registry and receives the coordinator's events for every query; with
	// its SlowQueryThreshold set, a query that reaches it adds a slow.query
	// event. Nil runs uninstrumented.
	Observer *obs.Observer
	// Logger receives the coordinator's structured diagnostics (query
	// failures, update errors, and its events as slog lines). Nil discards
	// them.
	Logger *slog.Logger
}

// Metrics reports where the time and bytes of a distributed query went —
// the quantities plotted in Figures 8.a–8.h and the network-traffic table.
type Metrics struct {
	// SiteElapsedMax is the slowest site's evaluation time (sites run in
	// parallel, so this is the site-side wall-clock contribution).
	SiteElapsedMax time.Duration
	// SiteElapsedSum totals every site's evaluation time — the "total
	// computation cost" the pre-caching experiment of the paper measures.
	SiteElapsedSum time.Duration
	// CoordElapsed is the time spent merging and reducing at the
	// coordinator.
	CoordElapsed time.Duration
	// Bytes counts all payload bytes returned by sites.
	Bytes int64
	// PartialNodes/PartialEdges total the sizes of the returned reduced
	// partitions (column R of the traffic table).
	PartialNodes, PartialEdges int
	// MGraphNodes/MGraphEdges size the merged graph before the final
	// reduction (column MGraph).
	MGraphNodes, MGraphEdges int
	// DecidedBy is the site id whose trusted termination condition decided
	// the query, or -1 when the coordinator decided after merging.
	DecidedBy int
	// CacheHits counts sites answered from their pre-computed reduction.
	CacheHits int
	// CoordCacheHits counts sites whose partial answer was served from the
	// coordinator's own copy after an epoch revalidation (no payload
	// crossed the network) — the Figure 6 setting.
	CoordCacheHits int
	// SnapshotHits is always 0: the coordinator merges its cached copies
	// afresh on every query and keeps no merged-graph snapshots. The field
	// stays because the benchmark harness reads it.
	SnapshotHits int
	// MergedQueries counts queries that reached the coordinator merge path
	// at all (no site decided them early).
	MergedQueries int
	// SitesQueried counts sites contacted.
	SitesQueried int
	// Stats accumulates the reduction work across sites and coordinator.
	Stats control.Stats
}

// AddQuery accumulates one query's metrics into a batch total. Every
// additive field is summed; SiteElapsedMax takes the maximum; DecidedBy is
// left as the total's own value (a batch has no single deciding site).
func (m *Metrics) AddQuery(q *Metrics) {
	m.SiteElapsedSum += q.SiteElapsedSum
	if q.SiteElapsedMax > m.SiteElapsedMax {
		m.SiteElapsedMax = q.SiteElapsedMax
	}
	m.CoordElapsed += q.CoordElapsed
	m.Bytes += q.Bytes
	m.PartialNodes += q.PartialNodes
	m.PartialEdges += q.PartialEdges
	m.MGraphNodes += q.MGraphNodes
	m.MGraphEdges += q.MGraphEdges
	m.CacheHits += q.CacheHits
	m.CoordCacheHits += q.CoordCacheHits
	m.SnapshotHits += q.SnapshotHits
	m.MergedQueries += q.MergedQueries
	m.SitesQueried += q.SitesQueried
	m.Stats.Add(q.Stats)
}

// Coordinator implements Algorithm 2: it posts q_c(s,t) to every site,
// collects partial answers, merges them and reduces the merged graph.
// With caching enabled it also keeps its own copy of each site's
// query-independent partial answer, revalidated per query by data epoch, so
// unchanged sites ship no payload at all. A Coordinator is safe for
// concurrent use.
type Coordinator struct {
	clients []SiteClient
	opts    Options
	met     coordMetrics
	ev      obs.Emitter

	// slots maps each site id to its index in pcache. The map is fixed at
	// construction and only read afterwards, so the per-site cache needs no
	// lock at all: each slot is one atomic pointer, swapped whole.
	slots  map[int]int
	pcache []atomic.Pointer[coordCached]

	// homes is the directory updates are routed by: homes[v] is one plus
	// the index in clients of company v's home site, 0 for a company no
	// site stores and homeConflict for one that two sites claim. Fixed at
	// construction.
	homes []int32

	// merges recycles per-query merge scratch (*mergeScratch): the merged
	// graph and its id table, the parts list and the {s,t} exclusion set.
	merges sync.Pool
}

// Metric names, for callers that read their own Observer's registry back.
const (
	MetricQuerySeconds      = "ccp_query_seconds"
	MetricQueryPhaseSeconds = "ccp_query_phase_seconds"
)

// coordMetrics are the coordinator's series that are not an event's sink:
// per-query totals published as the query ends. Zero-valued (all nil) without
// an Observer, where every update is a nil-check no-op.
type coordMetrics struct {
	phaseSites                    *obs.Histogram
	cacheHits, cacheMisses        *obs.Counter
	coordCacheHits, mergedQueries *obs.Counter
	batchInflight                 *obs.Gauge
}

// observe registers the coordinator's series on o's registry and binds each
// event type to the series it feeds.
func (c *Coordinator) observe(o *obs.Observer) {
	reg := o.Registry()
	phase := func(name string) *obs.Histogram {
		return reg.Histogram(MetricQueryPhaseSeconds,
			"Query latency by coordinator phase (sites fan-out, merge, final reduction).",
			obs.DefaultLatencyBuckets, obs.Label{Key: "phase", Value: name})
	}
	c.met = coordMetrics{
		phaseSites: phase("sites"),
		cacheHits: reg.Counter("ccp_coord_cache_hits_total",
			"Per-site partial answers served from a query-independent cache."),
		cacheMisses: reg.Counter("ccp_coord_cache_misses_total",
			"Per-site partial answers that needed a live site evaluation."),
		coordCacheHits: reg.Counter("ccp_coord_revalidations_total",
			"Partial answers served from the coordinator's own copy after an epoch revalidation (no payload shipped)."),
		mergedQueries: reg.Counter("ccp_coord_merged_queries_total",
			"Queries that reached the coordinator merge path (no site decided them early)."),
		batchInflight: reg.Gauge("ccp_batch_inflight_queries", "Batch queries currently in flight."),
	}
	c.ev.Attach(o)
	c.ev.SetLogger(c.opts.Logger)
	c.ev.Bind(flight.CoordAnswer, obs.Series{
		Seconds: reg.Histogram(MetricQuerySeconds, "End-to-end distributed query latency in seconds.", obs.DefaultLatencyBuckets),
		Count:   reg.Counter("ccp_queries_total", "Distributed queries answered, including failed ones."),
		ByA2:    []*obs.Counter{1: reg.Counter("ccp_query_errors_total", "Distributed queries that failed.")},
	})
	c.ev.Bind(flight.QueryShed, obs.Series{Count: reg.Counter("ccp_queries_shed_total", "Queries rejected by the admission gate before starting.")})
	c.ev.Bind(flight.SlowQuery, obs.Series{Count: reg.Counter("ccp_slow_queries_total", "Queries whose latency reached the slow-query threshold.")})
	c.ev.Bind(flight.WireRPC, obs.Series{Sum: reg.Counter("ccp_coord_payload_bytes_total", "Payload bytes returned by sites.")})
	c.ev.Bind(flight.GraphMerge, obs.Series{Seconds: phase("merge")})
	c.ev.Bind(flight.MergeReduce, obs.Series{Seconds: phase("reduce")})
}

// coordCached is the coordinator's copy of one site's partial answer,
// compacted once when it is stored.
type coordCached struct {
	site    int
	epoch   uint64
	reduced denseGraph
	stats   control.Stats
}

// denseGraph is a graph numbered over the nodes it holds: local node i is
// the company with global id ids[i], and ids ascends strictly, so local order
// is global order and the reducer's ascending-id victim order and lowest-id
// tie-breaks are the same in either numbering. Every graph the coordinator
// keeps or builds is one, so its size follows the partials it merges, not
// the global id space they are numbered in.
//
// A sparse denseGraph is a merge input only: g is numbered in global ids, as
// a partial arrives from its site, and ids lists its live nodes.
type denseGraph struct {
	g      *graph.Graph
	ids    []graph.NodeID
	sparse bool
}

// sparsePart appends the live nodes of g, a graph in global ids, to buf and
// returns g as a sparse merge input over them, with the grown buf.
func sparsePart(g *graph.Graph, buf []graph.NodeID) (denseGraph, []graph.NodeID) {
	from := len(buf)
	g.EachNode(func(v graph.NodeID) { buf = append(buf, v) })
	return denseGraph{g: g, ids: buf[from:len(buf):len(buf)], sparse: true}, buf
}

// global returns the global id of local node v.
func (d denseGraph) global(v graph.NodeID) graph.NodeID {
	if d.sparse {
		return v
	}
	return d.ids[v]
}

// local returns the local id of global node v, and whether d holds v.
func (d denseGraph) local(v graph.NodeID) (graph.NodeID, bool) {
	i, ok := slices.BinarySearch(d.ids, v)
	return graph.NodeID(i), ok
}

// localQuery translates q into d's local ids. An endpoint d does not hold
// becomes an id no graph holds — s None, t None-1 — so two different absent
// endpoints stay different, and only a company asked about itself meets
// CheckTermination's s == t rule, as in the global numbering.
func (d denseGraph) localQuery(q control.Query) control.Query {
	s, ok := d.local(q.S)
	if !ok {
		s = graph.None
	}
	t, ok := d.local(q.T)
	if !ok {
		t = graph.None - 1
	}
	if q.S == q.T {
		t = s
	}
	return control.Query{S: s, T: t}
}

// mergeInto renumbers the union of parts into dst, reusing dst's table and
// graph: dst.ids becomes the sorted union of the parts' tables and dst.g
// holds every part's nodes and edges. An edge met twice keeps the label it
// was first merged with, as graph.Merge does; merged reduced partitions never
// hold one edge twice, because each edge leaves a member of one site.
func mergeInto(dst *denseGraph, parts []denseGraph) {
	ids := dst.ids[:0]
	for _, p := range parts {
		ids = append(ids, p.ids...)
	}
	slices.Sort(ids)
	dst.ids = slices.Compact(ids)
	if dst.g == nil {
		dst.g = graph.New(len(dst.ids))
	} else {
		dst.g.ResetTo(len(dst.ids))
	}
	mg := dst.g
	for _, p := range parts {
		// A part's table ascends, so one cursor over the union finds each of
		// its nodes in turn; edge targets are looked up.
		a := graph.NodeID(0)
		for i, gv := range p.ids {
			for dst.ids[a] != gv {
				a++
			}
			v := graph.NodeID(i)
			if p.sparse {
				v = gv
			}
			p.g.EachOut(v, func(u graph.NodeID, w float64) {
				if b, _ := dst.local(p.global(u)); !mg.HasEdge(a, b) {
					// Cannot fail: both ends are live, and w is a label of a
					// valid graph.
					_ = mg.AddEdge(a, b, w)
				}
			})
		}
	}
}

// compact copies a global-id graph into a new dense graph over its live
// nodes.
func compact(g *graph.Graph) denseGraph {
	part, _ := sparsePart(g, nil)
	var d denseGraph
	mergeInto(&d, []denseGraph{part})
	return d
}

// mergeScratch is one query's pooled merge state: the merged graph, the
// merge inputs, the live partials' node lists and the {s, t} exclusion set.
type mergeScratch struct {
	mg    denseGraph
	parts []denseGraph
	nodes []graph.NodeID
	x     graph.NodeSet
}

func newMergeScratch() *mergeScratch { return &mergeScratch{x: graph.NewNodeSet()} }

// reduce runs the final reduction on the merged graph: q translated into its
// ids, X = {s, t}.
func (ms *mergeScratch) reduce(ctx context.Context, q control.Query, opts control.Options) (control.Result, error) {
	lq := ms.mg.localQuery(q)
	clear(ms.x)
	ms.x.Add(lq.S)
	ms.x.Add(lq.T)
	return control.ParallelReduction(ctx, ms.mg.g, lq, ms.x, opts)
}

// NewCoordinator builds a coordinator over the given site clients.
func NewCoordinator(clients []SiteClient, opts Options) *Coordinator {
	c := &Coordinator{
		clients: clients,
		opts:    opts,
		slots:   make(map[int]int, len(clients)),
	}
	for _, cl := range clients {
		if _, ok := c.slots[cl.SiteID()]; !ok {
			c.slots[cl.SiteID()] = len(c.slots)
		}
	}
	c.pcache = make([]atomic.Pointer[coordCached], len(c.slots))
	c.homes = directory(clients)
	c.merges.New = func() any { return newMergeScratch() }
	c.observe(opts.Observer)
	c.observeCache(opts.Observer)
	return c
}

// cachedEpoch returns the coordinator's stored epoch for a site, if any.
func (c *Coordinator) cachedEpoch(siteID int) (uint64, bool) {
	slot, ok := c.slots[siteID]
	if !ok {
		return 0, false
	}
	e := c.pcache[slot].Load()
	if e == nil {
		return 0, false
	}
	return e.epoch, true
}

// cachedCopy returns the coordinator's stored partial answer for a site.
func (c *Coordinator) cachedCopy(siteID int) *coordCached {
	slot, ok := c.slots[siteID]
	if !ok {
		return nil
	}
	return c.pcache[slot].Load()
}

// storeCopy publishes the coordinator's copy of a site's partial answer.
func (c *Coordinator) storeCopy(siteID int, cc *coordCached) {
	if slot, ok := c.slots[siteID]; ok {
		c.pcache[slot].Store(cc)
	}
}

// PrecomputeAll asks every site to build its query-independent reduction,
// the offline phase of the pre-caching setting.
func (c *Coordinator) PrecomputeAll(ctx context.Context) error {
	errs := make(chan error, len(c.clients))
	for _, cl := range c.clients {
		go func(cl SiteClient) { errs <- cl.Precompute(ctx) }(cl)
	}
	for range c.clients {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// Answer evaluates q_c(s, t) over the distributed graph. Degradation is
// fail-fast: the first site failure (typed *SiteError, *TransportError,
// *DeadlineError or *CancelledError) cancels the evaluations still in
// flight at the other sites and fails the query.
func (c *Coordinator) Answer(ctx context.Context, q control.Query) (bool, *Metrics, error) {
	ans, m, _, err := c.answer(ctx, q, false)
	return ans, m, err
}

// AnswerTraced is Answer plus the query's stitched cross-site trace: every
// event the coordinator emitted for it — one wire.rpc envelope per site that
// replied, the merge and reduce layers — and every site's own events re-based
// onto the coordinator's timeline. The returned trace is owned by the caller.
// It is non-nil even when the query failed (the trace shows how far the query
// got, the failing site's envelope included).
func (c *Coordinator) AnswerTraced(ctx context.Context, q control.Query) (bool, *Metrics, *obs.Trace, error) {
	return c.answer(ctx, q, true)
}

// answer wraps one query evaluation with the coordinator's observability: a
// query id (every query gets one, traced or not), a trace (only when
// requested), the query.start and coord.answer events — the latter followed
// by slow.query when the Observer's threshold is reached — and the per-query
// cache totals.
func (c *Coordinator) answer(ctx context.Context, q control.Query, wantTrace bool) (bool, *Metrics, *obs.Trace, error) {
	// Admission runs before anything is allocated or timed: a shed query
	// costs one event, and never pollutes the latency histograms with
	// sub-microsecond "queries".
	if g := c.opts.AdmissionGate; g != nil {
		release, err := g.Admit(ctx)
		if err != nil {
			c.ev.Emit(flight.QueryShed, -1, 0, int64(q.S), int64(q.T))
			return false, &Metrics{DecidedBy: -1}, nil, err
		}
		defer release()
	}
	start := time.Now()
	// The id goes to the sites with every request, so one query's events
	// correlate across the flight rings of every process it touched.
	sc := c.ev.Query(obs.NewTraceID(), wantTrace, time.Time{})
	sc.Emit(flight.QueryStart, -1, int64(q.S), int64(q.T))
	ans, m, err := c.eval(ctx, q, start, &sc)
	dur := time.Since(start)
	errFlag := int64(0)
	if err != nil {
		errFlag = 1
		c.ev.Log().Warn("query failed", "s", q.S, "t", q.T, "dur", dur, "err", err,
			obs.TraceIDAttr(sc.ID))
	}
	sc.Emit(flight.CoordAnswer, -1, int64(dur), errFlag)
	c.met.cacheHits.Add(int64(m.CacheHits))
	c.met.cacheMisses.Add(int64(m.SitesQueried - m.CacheHits))
	c.met.coordCacheHits.Add(int64(m.CoordCacheHits))
	if !wantTrace {
		return ans, m, nil, err
	}
	tr := &obs.Trace{TraceID: sc.ID, Query: fmt.Sprintf("controls(%d,%d)", q.S, q.T),
		Start: start, DurNS: dur.Nanoseconds(), Events: sc.Events}
	if err != nil {
		tr.Err = err.Error()
	}
	return ans, m, tr, err
}

// eval runs one query: fan out to the sites, collect partial answers, merge
// and reduce, reporting every step through the query's scope.
func (c *Coordinator) eval(ctx context.Context, q control.Query, qstart time.Time, sc *obs.Scope) (bool, *Metrics, error) {
	m := &Metrics{DecidedBy: -1}
	if len(c.clients) == 0 {
		return false, m, fmt.Errorf("dist: no sites")
	}
	if err := ctx.Err(); err != nil {
		return false, m, ctxError(-1, "answer", err)
	}

	// cancelQuery cancels the context the evaluations not taken inline run
	// under, made with ask; cancelling it on the first failure stops the
	// surviving sites at their next reduction round.
	cancelQuery := func() {}
	defer func() { cancelQuery() }()

	type reply struct {
		pa     *PartialAnswer
		bytes  int64
		err    error
		siteID int
		// start/dur bracket the whole site call on the coordinator's clock
		// (the envelope the site's own events are re-based onto).
		start time.Time
		dur   time.Duration
	}
	// Buffered to len(clients): after a fail-fast return the remaining
	// evaluations deposit their (cancelled) replies without blocking, so no
	// goroutine outlives the query.
	replies := make(chan reply, len(c.clients))
	id, traced := sc.ID, sc.Traced
	var ask func(cl SiteClient)
	for _, cl := range c.clients {
		// A site that can answer inline does so here, on this goroutine;
		// only the calls it declines are asked on their own, and a query
		// whose every site answers inline makes neither their context nor
		// their closure.
		if ie, ok := cl.(inlineEvaluator); ok {
			t0 := time.Now()
			if pa, n, err, ok := ie.evaluateInline(q, c.evalOptions(cl, id, traced)); ok {
				replies <- reply{pa, n, err, cl.SiteID(), t0, time.Since(t0)}
				continue
			}
		}
		if ask == nil {
			qctx, cancel := context.WithCancel(ctx)
			cancelQuery = cancel
			ask = func(cl SiteClient) {
				opts := c.evalOptions(cl, id, traced)
				// The envelope is timed unconditionally: the flight ring
				// wants every site call, not just traced ones, and two clock
				// reads cost far less than the call they bracket.
				t0 := time.Now()
				pa, n, err := cl.Evaluate(qctx, q, opts)
				replies <- reply{pa, n, err, cl.SiteID(), t0, time.Since(t0)}
			}
		}
		if c.opts.SequentialSites {
			ask(cl)
		} else {
			go ask(cl)
		}
	}

	// live holds the partials this query evaluated; copies the coordinator's
	// compacted copies of the cached ones, whether just shipped or revalidated.
	var live []*PartialAnswer
	var copies []*coordCached
	decided := control.Unknown
	decidedBy := -1
	for range c.clients {
		r := <-replies
		// One call per reply, failed or not: the envelope goes to the ring,
		// the payload counter and the trace, and the site's own events are
		// stitched in behind it.
		var remote []flight.Event
		if r.pa != nil {
			remote = r.pa.Events
		}
		sc.RPC(int32(r.siteID), r.start, r.dur, r.bytes, remote)
		if r.err != nil {
			cancelQuery()
			c.ev.Log().Debug("site evaluation failed", "site", r.siteID, "err", r.err,
				obs.TraceIDAttr(sc.ID))
			releasePartials(live)
			return false, m, fmt.Errorf("dist: site evaluation: %w", r.err)
		}
		m.SitesQueried++
		m.Bytes += r.bytes
		m.SiteElapsedSum += r.pa.Elapsed
		if r.pa.Elapsed > m.SiteElapsedMax {
			m.SiteElapsedMax = r.pa.Elapsed
		}
		if r.pa.FromCache {
			m.CacheHits++
		}
		if r.pa.NotModified {
			// Serve from the coordinator's own copy.
			cached := c.cachedCopy(r.pa.SiteID)
			if cached == nil {
				releasePartials(live)
				return false, m, fmt.Errorf("dist: site %d replied not-modified without a coordinator copy", r.pa.SiteID)
			}
			m.CoordCacheHits++
			m.Stats.Add(cached.stats)
			copies = append(copies, cached)
			continue
		}
		m.Stats.Add(r.pa.Stats)
		if r.pa.Ans != control.Unknown {
			if decided != control.Unknown && decided != r.pa.Ans {
				releasePartials(live)
				return false, m, fmt.Errorf("dist: sites %d and %d decided the query inconsistently",
					decidedBy, r.pa.SiteID)
			}
			decided = r.pa.Ans
			decidedBy = r.pa.SiteID
			continue
		}
		// An undecided site that ships no graph would drop its partition
		// from MGraph and the merge would answer without it.
		if r.pa.Reduced == nil {
			releasePartials(live)
			return false, m, fmt.Errorf("dist: site %d replied undecided without a partial graph", r.pa.SiteID)
		}
		if r.pa.FromCache {
			cc := &coordCached{
				site:    r.pa.SiteID,
				epoch:   r.pa.Epoch,
				reduced: compact(r.pa.Reduced),
				stats:   r.pa.Stats,
			}
			// The copy shares nothing with the shipped graph.
			r.pa.Release()
			c.storeCopy(r.pa.SiteID, cc)
			copies = append(copies, cc)
			continue
		}
		live = append(live, r.pa)
	}
	c.met.phaseSites.Observe(time.Since(qstart).Seconds())
	if decided != control.Unknown {
		m.DecidedBy = decidedBy
		releasePartials(live)
		return decided.Bool(), m, nil
	}

	// Assemble: MGraph := ∪ R_i, then reduce once more with X = {s, t}. The
	// dense copies of the cached partials and the live partials are
	// renumbered over their union into pooled scratch, so the merged graph is
	// as large as the nodes it holds. Live partials decode into pooled graphs
	// and return to their pools once merged.
	m.MergedQueries++
	c.met.mergedQueries.Inc()
	start := time.Now()
	ms := c.merges.Get().(*mergeScratch)
	parts := ms.parts[:0]
	for _, cc := range copies {
		m.PartialNodes += cc.reduced.g.NumNodes()
		m.PartialEdges += cc.reduced.g.NumEdges()
		parts = append(parts, cc.reduced)
	}
	nodes := ms.nodes[:0]
	for _, pa := range live {
		m.PartialNodes += pa.Reduced.NumNodes()
		m.PartialEdges += pa.Reduced.NumEdges()
		var part denseGraph
		part, nodes = sparsePart(pa.Reduced, nodes)
		parts = append(parts, part)
	}
	ms.nodes = nodes
	mergeInto(&ms.mg, parts)
	// The pooled parts list must not keep partials or copies alive.
	clear(parts)
	ms.parts = parts[:0]
	releasePartials(live)
	m.MGraphNodes = ms.mg.g.NumNodes()
	m.MGraphEdges = ms.mg.g.NumEdges()
	reduceStart := sc.Span(flight.GraphMerge, -1, start, int64(m.MGraphEdges))
	res, err := ms.reduce(ctx, q, control.Options{
		Workers: c.reduceWorkers(),
		Trust:   control.FullTrust,
	})
	c.merges.Put(ms)
	m.CoordElapsed = time.Since(start)
	sc.Span(flight.MergeReduce, -1, reduceStart,
		flight.PackReduce(res.Stats.Iterations, res.Stats.Removed+res.Stats.Contracted))
	m.Stats.Add(res.Stats)
	if err != nil {
		return false, m, ctxError(-1, "merge", err)
	}
	if res.Ans == control.Unknown {
		return false, m, fmt.Errorf("dist: merged reduction could not decide %v", q)
	}
	return res.Ans.Bool(), m, nil
}

// evalOptions are the options a query posts to cl: the coordinator's, the
// query's id and trace flag, and the epoch of the coordinator's copy of the
// site's cached partial, if it keeps one.
func (c *Coordinator) evalOptions(cl SiteClient, queryID uint64, traced bool) EvalOptions {
	opts := EvalOptions{
		UseCache:     c.opts.UseCache,
		ForcePartial: c.opts.ForcePartial,
		QueryID:      queryID,
		Trace:        traced,
	}
	if c.opts.UseCache {
		if epoch, ok := c.cachedEpoch(cl.SiteID()); ok {
			opts.IfEpoch, opts.HasIfEpoch = epoch, true
		}
	}
	return opts
}

// homeConflict marks a company two sites claim in the update directory.
const homeConflict = -1

// directory builds the update directory of NewCoordinator from the clients'
// member lists (see Coordinator.homes). A company two clients list is a
// conflict.
func directory(clients []SiteClient) []int32 {
	lists := make([][]graph.NodeID, len(clients))
	n := 0
	for i, cl := range clients {
		lists[i] = cl.Members()
		if k := len(lists[i]); k > 0 && int(lists[i][k-1]) >= n {
			n = int(lists[i][k-1]) + 1
		}
	}
	homes := make([]int32, n)
	for i, ids := range lists {
		for _, v := range ids {
			if v < 0 {
				continue
			}
			if homes[v] == 0 {
				homes[v] = int32(i + 1)
			} else {
				homes[v] = homeConflict
			}
		}
	}
	return homes
}

// releasePartials returns every pooled partial-answer graph in pas to its
// pool; on the rest Release is a no-op.
func releasePartials(pas []*PartialAnswer) {
	for _, pa := range pas {
		pa.Release()
	}
}

// reduceWorkers picks the coordinator-side reduction parallelism: when the
// batch itself runs queries concurrently, each in-flight query reduces
// single-threaded — the queries are the parallelism, and nested fan-out
// only adds scheduling churn on the same cores.
func (c *Coordinator) reduceWorkers() int {
	if c.opts.Concurrency > 1 {
		return 1
	}
	return c.opts.Workers
}

// AnswerBatch evaluates a batch of queries — the paper's production setting
// serves thousands of control queries per minute, where the pre-computed
// partial answers amortize across the whole batch. Up to Options.Concurrency
// queries run in flight at once; per-query metrics are accumulated into the
// batch total in query order, so the aggregate is deterministic regardless
// of completion order. It returns one answer per query and aggregate
// metrics; on failure the error is a *QueryError naming the lowest-index
// failing query. A cancelled or expired ctx stops the batch: queries not
// yet started are abandoned, and the error names the first query that did
// not complete.
func (c *Coordinator) AnswerBatch(ctx context.Context, qs []control.Query) ([]bool, *Metrics, error) {
	total := &Metrics{DecidedBy: -1}
	out := make([]bool, len(qs))
	conc := c.opts.Concurrency
	if conc > len(qs) {
		conc = len(qs)
	}
	if conc <= 1 {
		c.met.batchInflight.Add(1)
		defer c.met.batchInflight.Add(-1)
		for i, q := range qs {
			ans, m, _, err := c.answer(ctx, q, false)
			if err != nil {
				return nil, total, &QueryError{Index: i, Query: q, Err: err}
			}
			out[i] = ans
			total.AddQuery(m)
		}
		return out, total, nil
	}

	ms := make([]*Metrics, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				c.met.batchInflight.Add(1)
				out[i], ms[i], _, errs[i] = c.answer(ctx, qs[i], false)
				c.met.batchInflight.Add(-1)
			}
		}()
	}
	wg.Wait()
	for i := range qs {
		if errs[i] != nil {
			return nil, total, &QueryError{Index: i, Query: qs[i], Err: errs[i]}
		}
		if ms[i] == nil {
			// Never started: the ctx died before a worker claimed it.
			return nil, total, &QueryError{Index: i, Query: qs[i], Err: ctxError(-1, "batch", ctx.Err())}
		}
		total.AddQuery(ms[i])
	}
	return out, total, nil
}
