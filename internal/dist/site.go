// Package dist implements the distributed company-control runtime of
// Section VII: worker sites that compute partial answers by reducing their
// partition (partial evaluation), and a coordinator that assembles the
// partial answers, reduces the merged graph, and produces the final answer.
// Query-independent partial answers can be pre-computed and cached, so that
// at query time at most the two sites storing s and t evaluate anything. A
// live evaluation reduces only the query's slice of its partition, and the
// cache only the partition's core, the slice of a query with no endpoint at
// the site; the whole partition is copied only under ForcePartial.
//
// Sites and coordinator can run in one process (LocalClient) or as separate
// processes speaking a gob protocol over TCP (Serve / Dial), with byte-level
// accounting of everything that crosses the wire.
package dist

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// PartialAnswer is a site's reply to a posted query: either a decided global
// answer (a trusted termination condition fired locally) or the reduced
// partition to be merged at the coordinator.
type PartialAnswer struct {
	SiteID int
	// Ans is True/False if the site decided the query, Unknown otherwise.
	Ans control.Answer
	// Reduced is the reduced partition; nil when Ans is decided.
	Reduced *graph.Graph
	// Stats reports the local reduction work.
	Stats control.Stats
	// Elapsed is the site-side evaluation time.
	Elapsed time.Duration
	// FromCache reports that the answer came from the query-independent
	// cache rather than a live evaluation.
	FromCache bool
	// Epoch is the site's data version the answer was computed at; it
	// changes whenever the site's partition changes. The coordinator sends
	// it back as EvalOptions.IfEpoch to revalidate its cached copy.
	Epoch uint64
	// NotModified reports that the coordinator's copy (requested via
	// EvalOptions.IfEpoch) is still valid; Reduced is nil.
	NotModified bool
	// Events are the events the site emitted while serving a traced
	// evaluation (EvalOptions.Trace), with TS as an offset from the start of
	// this evaluation; nil when the query is not traced.
	Events []flight.Event

	// pool, when non-nil, owns Reduced: the graph is pooled scratch, valid
	// until Release. A site's own cached partial (FromCache from a
	// LocalClient) is never pooled — its graph is shared site state; over
	// the wire every shipped graph, cached or live, is pooled.
	pool *sync.Pool
}

// Release returns a pooled Reduced graph for reuse and clears the reference.
// Callers that consumed the partial (merged it, encoded it) should release
// it; forgetting to is safe — the graph is simply garbage collected. Release
// on a nil, unpooled, or already-released answer is a no-op.
func (pa *PartialAnswer) Release() {
	if pa == nil || pa.pool == nil || pa.Reduced == nil {
		return
	}
	pa.pool.Put(pa.Reduced)
	pa.Reduced = nil
	pa.pool = nil
}

// Site evaluates queries over one partition — the per-site half of
// Algorithm 2. A Site is safe for concurrent use.
//
// Concurrency model: s.mu guards the one live partition, the epoch that
// versions it, and the query-independent cache. Apply holds it exclusively.
// A live evaluation holds it shared only while it reads the termination
// aggregates and copies its slice of the partition and the boundary into
// pooled scratch, then reduces the copy with the lock released; a cache
// build does the same with the partition's core. Every partial is therefore
// computed from the partition exactly as it stood at the epoch it carries.
// The cost is that a write waits for in-flight copies, and a read waits for
// an in-flight write, including its WAL fsync.
type Site struct {
	mu      sync.RWMutex
	part    *partition.Partition
	workers int

	cache      *graph.Graph // query-independent reduction of the core
	cacheStats control.Stats
	cacheEpoch uint64 // epoch the cache was computed at

	// epoch versions the site's data; every applied update bumps it (under
	// s.mu, but readable lock-free).
	epoch atomic.Uint64

	// store, when non-nil, is the durable WAL + checkpoint backing: every
	// effective update is logged before it is acknowledged, and the epoch
	// is the WAL sequence number — a version that survives restarts.
	// logErr is the append failure after which the site serves nothing
	// (see Apply); readers check it under s.mu.
	store  *store.Store
	logErr error

	// scratch pools the graphs live evaluations and cache builds copy a
	// slice into and reduce (the whole partition under ForcePartial);
	// exclusions pools the exclusion sets. Both reach zero steady-state
	// allocations: reduction clears a scratch graph's tables instead of
	// dropping them, so the next copy reuses every one. A scratch graph is
	// never published as long-lived state (the cache is a compact Clone of
	// one).
	scratch    sync.Pool
	exclusions sync.Pool

	// reach is the per-epoch half of a live evaluation's slice and the
	// whole of a cache build's core, built for the epoch reachEpoch holds.
	// Every reader under s.mu sees one epoch, so reach is written only by
	// the first of them to find it stale:
	// reachMu serializes that rebuild, and storing reachEpoch after it
	// publishes the sets to readers that skip the lock. The next rebuild
	// needs a new epoch, which waits for every such reader to leave s.mu.
	// slicers pools the per-query walk scratch.
	reachMu    sync.Mutex
	reach      partition.Reach
	reachEpoch atomic.Uint64
	slicers    sync.Pool

	ev obs.Emitter
}

// takeBoundary copies the boundary V^in ∪ V^virt into a pooled set, the
// exclusion set of a query-independent reduction; a query adds its
// endpoints. Caller holds s.mu, shared or exclusive.
func (s *Site) takeBoundary() graph.NodeSet {
	x, _ := s.exclusions.Get().(graph.NodeSet)
	if x == nil {
		x = graph.NewNodeSet()
	} else {
		clear(x)
	}
	x.AddAll(s.part.InNodes)
	x.AddAll(s.part.Virtual)
	return x
}

// takeScratch borrows a pooled graph for a per-evaluation copy; may return
// nil, which CloneInto and InducedInto treat as "allocate fresh".
func (s *Site) takeScratch() *graph.Graph {
	g, _ := s.scratch.Get().(*graph.Graph)
	return g
}

// Observe registers the site's metrics — evaluation and reduction latency,
// cache hits/misses — on o's registry, labeled with
// the partition id, and points the site's events at o. Call once, before the
// site starts serving.
func (s *Site) Observe(o *obs.Observer) {
	reg := o.Registry()
	id := strconv.Itoa(s.part.ID)
	l := obs.Label{Key: "site", Value: id}
	hits := reg.Counter("ccp_site_cache_hits_total",
		"Evaluations served from the query-independent cache.", l)
	misses := reg.Counter("ccp_site_cache_misses_total",
		"Evaluations answered by a live reduction or local decision.", l)
	s.ev.Attach(o)
	s.ev.Bind(flight.SiteEvaluate, obs.Series{
		Seconds: reg.Histogram("ccp_site_evaluate_seconds",
			"Site-side evaluation latency in seconds.", obs.DefaultLatencyBuckets, l),
		ByA2: []*obs.Counter{flight.EvalLive: misses, flight.EvalCached: hits,
			flight.EvalDecided: misses, flight.EvalRevalidated: hits},
	})
	s.ev.Bind(flight.SiteReduce, obs.Series{
		Seconds: reg.Histogram("ccp_site_reduce_seconds",
			"Site-side reduction latency in seconds (control.site_reduce).", obs.DefaultLatencyBuckets, l),
	})
	reg.GaugeFunc("ccp_site_epoch",
		"The site's data epoch (the durable WAL sequence number when a store is attached).",
		func() float64 { return float64(s.epoch.Load()) }, l)
	if s.store != nil {
		s.store.Observe(o, s.part.ID)
	}
}

// SetLogger routes the site's structured diagnostics and the slog lines of
// its events to l. Call before the site starts serving; nil discards.
func (s *Site) SetLogger(l *slog.Logger) { s.ev.SetLogger(l) }

// NewSite wraps a partition. workers <= 0 means GOMAXPROCS.
func NewSite(p *partition.Partition, workers int) *Site {
	s := &Site{part: p, workers: workers, cacheEpoch: ^uint64(0)}
	s.reachEpoch.Store(^uint64(0))
	return s
}

// OpenDurableSite builds a site backed by the durable store in dir:
// recovery loads the newest valid checkpoint and replays the WAL tail
// through Apply, the path live writes take; then the site logs every
// effective update and checkpoints in the background. On a fresh (or empty)
// directory the partition comes from seed — typically the partition file
// the deployment was provisioned with.
//
// After recovery the site's epoch is the durable WAL sequence number it had
// before the restart, so coordinator caches versioned by epoch vectors
// revalidate with NotModified instead of refetching whole partitions.
func OpenDurableSite(dir string, seed func() (*partition.Partition, error), workers int, opts store.Options) (*Site, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	p, ckptSeq := st.Base()
	if p == nil {
		if p, err = seed(); err != nil {
			st.Close()
			return nil, err
		}
	}
	s := NewSite(p, workers)
	s.store = st
	// The epoch starts at the image's sequence number and moves to each
	// replayed record's, exactly as it moved on the live site.
	s.epoch.Store(ckptSeq)
	if err := st.Replay(func(rec store.Record) error {
		_, err := s.Apply(rec)
		return err
	}); err != nil {
		st.Close()
		return nil, fmt.Errorf("dist: site %d replaying wal: %w", p.ID, err)
	}
	st.Start(s.checkpointImage)
	return s, nil
}

// checkpointImage is the store's checkpoint source. The image must cover
// every record applied so far, or replay would double-apply them; appends
// happen under the exclusive s.mu, so AppendedSeq is exact under the read
// lock. The image is a deep copy, written out after the lock is released.
func (s *Site) checkpointImage() (uint64, *partition.Partition) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.AppendedSeq(), s.part.Snapshot()
}

// CloseStore checkpoints and closes the site's durable store — a clean
// shutdown, after which the next boot replays nothing. It is idempotent
// and a no-op for a site without a store. Callers drain queries first;
// updates arriving after the close fail rather than silently losing
// durability.
func (s *Site) CloseStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Checkpoint forces a durable-store checkpoint immediately — sealing the
// active WAL segment and deleting segments the new checkpoint fully covers.
// A no-op for a site without a store. Tests and deployment tooling use it
// to bound the WAL tail on demand instead of waiting for the background
// triggers.
func (s *Site) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	return s.store.Checkpoint()
}

// StoreStats returns the durable store's counters; ok is false for a site
// without a store.
func (s *Site) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// Epoch returns the site's current data version (the durable WAL sequence
// number when a store is attached).
func (s *Site) Epoch() uint64 { return s.epoch.Load() }

// reduce reduces g, the scratch copy an evaluation made under the read lock,
// and reports the reduction, which began at reduceStart, as sc's
// control.site_reduce span. x, the exclusion set, goes back to its pool, and
// so does g on an error. It runs on the control layer's
// pooled Reducers (sites and the coordinator's batch workers draw from one
// scratch surface). A cancelled context stops the reduction at the next
// round boundary; the Reducer goes back to the pool either way (its next
// use resets all scratch state), so a cancelled query never poisons the
// site for the queries after it.
func (s *Site) reduce(ctx context.Context, sc *obs.Scope, reduceStart time.Time, g *graph.Graph, q control.Query, x graph.NodeSet, opt control.Options) (control.Result, error) {
	res, err := control.ParallelReduction(ctx, g, q, x, opt)
	s.exclusions.Put(x)
	if err != nil {
		s.scratch.Put(g)
		return res, err
	}
	sc.Span(flight.SiteReduce, int32(s.part.ID), reduceStart,
		flight.PackReduce(res.Stats.Iterations, res.Stats.Removed+res.Stats.Contracted))
	return res, nil
}

// ID returns the partition id this site serves.
func (s *Site) ID() int { return s.part.ID }

// Members returns the number of companies stored at the site.
func (s *Site) Members() int { return len(s.part.Members) }

// HoldsMember reports whether v is stored at this site (not just virtual).
func (s *Site) HoldsMember(v graph.NodeID) bool { return s.part.Members.Has(v) }

// MemberIDs returns the companies stored at the site in ascending order: the
// site's entry in a coordinator's directory. A site's members never change.
func (s *Site) MemberIDs() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(s.part.Members))
	for v := range s.part.Members {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	return ids
}

// Precompute builds (or refreshes) the query-independent reduction: the
// partition's core, R(V^in) ∩ C(V^virt), reduced with only the boundary
// nodes excluded. This is the offline work of Figure 6's cached sites. It
// returns the reduction stats. A cancelled or expired ctx aborts the build
// and leaves the cache untouched; the next Precompute starts over.
func (s *Site) Precompute(ctx context.Context) (control.Stats, error) {
	start := time.Now()
	sc := s.ev.Query(0, false, start)
	_, st, _, err := s.cached(ctx, &sc, start)
	return st, err
}

// cached returns the query-independent reduction with its stats and the
// epoch of the partition it reduces, building it if the partition moved
// since the last build. The build copies the partition's core — the slice
// of a query with neither endpoint at the site — under the read lock, like a
// live evaluation, and reduces the copy outside it, reporting both steps on
// sc as an evaluation that began at start. It is installed as the cache
// only if no update landed meanwhile, but it is served either way: it is
// exact for the epoch it reports, and the next call rebuilds.
//
// The core is all a query with no endpoint here can use: any path from s to
// t through the partition enters at an in-node and leaves at a virtual
// node, which is the live slice's argument (see Evaluate) with s and t
// outside the partition.
func (s *Site) cached(ctx context.Context, sc *obs.Scope, start time.Time) (*graph.Graph, control.Stats, uint64, error) {
	epoch, err := s.rlock()
	if err != nil {
		return nil, control.Stats{}, 0, err
	}
	if s.cache != nil && s.cacheEpoch == epoch {
		g, st := s.cache, s.cacheStats
		s.mu.RUnlock()
		return g, st, epoch, nil
	}
	q := control.Query{S: graph.None, T: graph.None}
	x := s.takeBoundary()
	g := s.slice(epoch, q)
	s.mu.RUnlock()
	reduceStart := sc.Span(flight.GraphClone, int32(s.part.ID), start, int64(g.NumNodes()))

	// The cache keeps a compact Clone of the result (no table for a removed
	// node) and the scratch, which keeps every table, goes back to the pool.
	res, err := s.reduce(ctx, sc, reduceStart, g, q, x, control.Options{
		Workers:            s.workers,
		DisableTermination: true, // there is no query yet
	})
	if err != nil {
		return nil, control.Stats{}, 0, err
	}
	cache := g.Clone()
	s.scratch.Put(g)

	s.mu.Lock()
	if s.epoch.Load() == epoch {
		s.cache, s.cacheStats, s.cacheEpoch = cache, res.Stats, epoch
	}
	s.mu.Unlock()
	return cache, res.Stats, epoch, nil
}

// EvalOptions selects how a site evaluates a query.
type EvalOptions struct {
	// UseCache serves the query-independent cached reduction when neither
	// endpoint is stored at the site.
	UseCache bool
	// ForcePartial disables the early-termination answers, so the site
	// always returns its reduced partition, and copies the whole partition
	// instead of the query's slice. Measurement runs use it to exercise the
	// full assemble-and-merge pipeline on every query.
	ForcePartial bool
	// IfEpoch, when HasIfEpoch is set, asks the site to reply NotModified
	// instead of re-shipping its cached partial answer if the site's data
	// is still at that epoch — the conditional fetch behind the
	// coordinator-side cache of Figure 6.
	IfEpoch    uint64
	HasIfEpoch bool
	// QueryID is the coordinator's id for the query; the site stamps it on
	// every event it emits while serving, so the flight rings of all the
	// processes a query touched correlate. Set on every query.
	QueryID uint64
	// Trace asks the site to also send its events back, in
	// PartialAnswer.Events. Off (the default) nothing extra is kept or
	// shipped.
	Trace bool
}

// Evaluate computes the partial answer to q (Algorithm 2, line 6). With
// opts.UseCache set and neither endpoint stored here, the cached
// query-independent reduction of the partition's core is returned
// (computing it on demand), or NotModified when opts.IfEpoch is current.
// A cancelled or expired ctx stops the evaluation at the next reduction
// round and returns the context error; the site (and its pooled reducers)
// stay fully usable for subsequent queries.
//
// A live evaluation reduces only the slice of the partition that q can use:
// the nodes on some local path from {s} ∪ V^in to {t} ∪ V^virt (see
// partition.Slice), with the same exclusion set and trust as a
// whole-partition reduction. Dropping the rest is sound:
//
//   - A node no local path reaches from s or V^in has no global path from s
//     either, since any such path enters the partition at s or at an
//     in-node. s cannot control it, and its stakes never count toward s's
//     coalition. Dropping it only lowers in-sums of stakes that cannot
//     count, so R2 and T2 fire earlier, but never wrongly.
//   - A node that reaches neither t nor V^virt cannot reach t. The first
//     node of s's controlled set that reaches t is held > ½ by s alone, so
//     T1 stays sound on the slice, and an empty slice (s reaches neither t
//     nor V^virt) is decided False by the reducer's round-0 check.
//
// The termination check on the whole partition still runs before the copy.
// opts.ForcePartial copies the whole partition instead.
func (s *Site) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, error) {
	start := time.Now()
	sc := s.ev.Query(opts.QueryID, opts.Trace, start)
	if pa := s.answerFree(&sc, q, opts, start); pa != nil {
		return pa, nil
	}
	holdsS := s.part.Members.Has(q.S)
	holdsT := s.part.Members.Has(q.T)

	if opts.UseCache && !holdsS && !holdsT {
		g, st, epoch, err := s.cached(ctx, &sc, start)
		if err != nil {
			return nil, err
		}
		pa := &PartialAnswer{
			SiteID:    s.part.ID,
			Ans:       control.Unknown,
			Reduced:   g,
			Stats:     st,
			FromCache: true,
			Epoch:     epoch,
		}
		return s.served(&sc, pa, start, flight.EvalCached), nil
	}

	// Live evaluation. Under the read lock: decide T1–T3, or copy the
	// partition and the exclusion set {s, t} ∪ V^in ∪ V^virt into scratch.
	// The copy is reduced with the lock released. The early-termination
	// conditions are trusted only where local knowledge is complete (see
	// control.TerminationTrust). answerFree checked them already, but an
	// update may have landed since.
	epoch, err := s.rlock()
	if err != nil {
		return nil, err
	}
	trust := s.trust(q, holdsS, holdsT)
	if !opts.ForcePartial {
		if a := control.CheckTermination(s.part.Local, q, trust); a != control.Unknown {
			s.mu.RUnlock()
			pa := &PartialAnswer{SiteID: s.part.ID, Ans: a, Epoch: epoch}
			return s.served(&sc, pa, start, flight.EvalDecided), nil
		}
	}
	x := s.takeBoundary()
	x.Add(q.S)
	x.Add(q.T)
	var g *graph.Graph
	if opts.ForcePartial {
		g = s.part.Local.CloneInto(s.takeScratch())
	} else {
		g = s.slice(epoch, q)
	}
	s.mu.RUnlock()
	reduceStart := sc.Span(flight.GraphClone, int32(s.part.ID), start, int64(g.NumNodes()))
	if opts.ForcePartial {
		// Elapsed, the site's share of T_D, leaves the whole-partition copy
		// out, as timeReduction's T_C does; graph.clone still reports it.
		start = time.Now()
	}
	res, err := s.reduce(ctx, &sc, reduceStart, g, q, x, control.Options{
		Workers:            s.workers,
		Trust:              trust,
		DisableTermination: opts.ForcePartial,
	})
	if err != nil {
		return nil, err
	}
	pa := &PartialAnswer{
		SiteID: s.part.ID,
		Ans:    res.Ans,
		Stats:  res.Stats,
		Epoch:  epoch,
	}
	if opts.ForcePartial {
		pa.Ans = control.Unknown
	}
	if pa.Ans == control.Unknown {
		pa.Reduced = g
		pa.pool = &s.scratch
	} else {
		s.scratch.Put(g)
	}
	return s.served(&sc, pa, start, flight.EvalLive), nil
}

// evaluateFree is Evaluate for the calls that cost the site no work — no
// copy, no reduction, no cache build — and nil for the rest, which only
// Evaluate answers. A free call is answered exactly as Evaluate answers it,
// events included.
func (s *Site) evaluateFree(q control.Query, opts EvalOptions) *PartialAnswer {
	start := time.Now()
	sc := s.ev.Query(opts.QueryID, opts.Trace, start)
	return s.answerFree(&sc, q, opts, start)
}

// answerFree serves the three replies that need no work: a revalidation of
// the coordinator's copy, the warm cache, and a T1–T3 decision (the
// conditions are O(1) on the cached aggregates, and the reducer would check
// them before doing any work anyway; deciding here skips the copy, with the
// same trust, answer and zero stats as the reducer's round-0 exit). It
// returns nil when q needs a live evaluation or a cache build.
func (s *Site) answerFree(sc *obs.Scope, q control.Query, opts EvalOptions, start time.Time) *PartialAnswer {
	holdsS := s.part.Members.Has(q.S)
	holdsT := s.part.Members.Has(q.T)
	if opts.UseCache && !holdsS && !holdsT {
		// A revalidation is answered before the cache is looked at: a cache
		// that is cold at the coordinator's epoch (after a durable restart,
		// which keeps the epoch) must not be rebuilt only to say NotModified.
		if opts.HasIfEpoch && opts.IfEpoch == s.epoch.Load() {
			pa := &PartialAnswer{SiteID: s.part.ID, Ans: control.Unknown, FromCache: true,
				Epoch: opts.IfEpoch, NotModified: true}
			return s.served(sc, pa, start, flight.EvalRevalidated)
		}
		epoch, err := s.rlock()
		if err != nil {
			return nil
		}
		if s.cache == nil || s.cacheEpoch != epoch {
			s.mu.RUnlock()
			return nil
		}
		pa := &PartialAnswer{SiteID: s.part.ID, Ans: control.Unknown, Reduced: s.cache,
			Stats: s.cacheStats, FromCache: true, Epoch: epoch}
		s.mu.RUnlock()
		return s.served(sc, pa, start, flight.EvalCached)
	}
	if opts.ForcePartial {
		return nil
	}
	epoch, err := s.rlock()
	if err != nil {
		return nil
	}
	a := control.CheckTermination(s.part.Local, q, s.trust(q, holdsS, holdsT))
	s.mu.RUnlock()
	if a == control.Unknown {
		return nil
	}
	return s.served(sc, &PartialAnswer{SiteID: s.part.ID, Ans: a, Epoch: epoch}, start, flight.EvalDecided)
}

// rlock takes s.mu shared and returns the epoch the partition stands at. A
// site whose WAL append failed releases the lock again and returns the
// failure instead: it serves nothing at any epoch (see Apply).
func (s *Site) rlock() (uint64, error) {
	s.mu.RLock()
	if s.logErr != nil {
		s.mu.RUnlock()
		return 0, s.logErr
	}
	return s.epoch.Load(), nil
}

// trust is the termination trust of q at this site. Caller holds s.mu,
// shared or exclusive.
func (s *Site) trust(q control.Query, holdsS, holdsT bool) control.TerminationTrust {
	return control.TerminationTrust{
		T1: holdsS,
		T2: holdsT && !s.part.InNodes.Has(q.T),
	}
}

// slice copies q's slice of the partition into pooled scratch, first
// rebuilding the per-epoch reachability sets if the partition moved since
// they were built. Caller holds s.mu shared, at epoch.
func (s *Site) slice(epoch uint64, q control.Query) *graph.Graph {
	if s.reachEpoch.Load() != epoch {
		s.reachMu.Lock()
		if s.reachEpoch.Load() != epoch {
			s.part.BuildReach(&s.reach)
			s.reachEpoch.Store(epoch)
		}
		s.reachMu.Unlock()
	}
	sc, _ := s.slicers.Get().(*partition.SliceScratch)
	if sc == nil {
		sc = new(partition.SliceScratch)
	}
	g := s.part.Local.InducedInto(s.takeScratch(), s.part.Slice(&s.reach, q.S, q.T, sc))
	s.slicers.Put(sc)
	return g
}

// served finishes an evaluation: it stamps pa with the elapsed time, makes
// the exit's one emission — site.evaluate, which feeds the latency histogram
// and the hit/miss counters by how the answer was served — and hands a
// traced query its events.
func (s *Site) served(sc *obs.Scope, pa *PartialAnswer, start time.Time, how int64) *PartialAnswer {
	pa.Elapsed = time.Since(start)
	sc.Emit(flight.SiteEvaluate, int32(pa.SiteID), int64(pa.Elapsed), how)
	pa.Events = sc.Events
	return pa
}
