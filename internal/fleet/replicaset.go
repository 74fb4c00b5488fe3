package fleet

import (
	"context"
	"log/slog"
	"strconv"
	"sync/atomic"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/store"
)

// ReplicaSetConfig tunes one site's replica-aware routing.
type ReplicaSetConfig struct {
	// Observer, when non-nil, registers routing metrics (reads by role,
	// fallbacks, stale re-issues) on its registry, labeled by site.
	Observer *obs.Observer
	// Logger receives routing diagnostics (fallbacks, stale reads). Nil
	// discards them.
	Logger *slog.Logger
}

// replicaSetMetrics are the set's registered series — zero-valued (all nil)
// without an Observer, where every update is a nil-check no-op.
type replicaSetMetrics struct {
	leaderReads   *obs.Counter
	followerReads *obs.Counter
	fallbacks     *obs.Counter
}

// ReplicaSet is one site's replica-aware client: a leader plus any number
// of follower replicas behind the ordinary dist.SiteClient interface, so
// the coordinator routes queries without knowing replication exists.
//
// Reads go to the least-loaded healthy member (followers win ties, keeping
// the leader free for writes); a follower failure falls back to the leader
// in the same call, and a follower answer older than the set's write
// watermark — the epoch of the last write routed through this set — is
// re-issued to the leader, so a lagging replica degrades to leader reads
// instead of serving stale data. Writes always go to the leader; followers
// refuse them anyway (read-only sites). Safe for concurrent use.
type ReplicaSet struct {
	leader  dist.SiteClient
	members []dist.SiteClient // leader first, then followers
	// inflight counts each member's outstanding evaluations — the routing
	// load signal. Indexed like members.
	inflight []atomic.Int64

	// epochFloor is the write watermark: the highest epoch this set has
	// observed a write commit at. Follower answers below it are stale.
	epochFloor atomic.Uint64

	met replicaSetMetrics
	ev  obs.Emitter
}

// NewReplicaSet wraps a leader client and its follower clients into one
// routed site client. With no followers it degenerates to leader-only
// routing (still useful: one code path for every site).
func NewReplicaSet(leader dist.SiteClient, followers []dist.SiteClient, cfg ReplicaSetConfig) *ReplicaSet {
	members := append([]dist.SiteClient{leader}, followers...)
	r := &ReplicaSet{
		leader:   leader,
		members:  members,
		inflight: make([]atomic.Int64, len(members)),
	}
	r.ev.Attach(cfg.Observer)
	r.ev.SetLogger(cfg.Logger)
	if reg := cfg.Observer.Registry(); reg != nil {
		l := obs.Label{Key: "site", Value: strconv.Itoa(leader.SiteID())}
		reads := func(role string) *obs.Counter {
			return reg.Counter("ccp_replica_reads_total",
				"Evaluations routed by the replica set, by serving role.",
				l, obs.Label{Key: "role", Value: role})
		}
		r.met = replicaSetMetrics{
			leaderReads:   reads("leader"),
			followerReads: reads("follower"),
			fallbacks: reg.Counter("ccp_replica_fallbacks_total",
				"Follower evaluations that failed and were retried on the leader.", l),
		}
		r.ev.Bind(flight.StaleRead, obs.Series{Count: reg.Counter("ccp_replica_stale_reads_total",
			"Follower answers older than the write watermark, re-issued to the leader.", l)})
	}
	return r
}

// SiteID implements dist.SiteClient.
func (r *ReplicaSet) SiteID() int { return r.leader.SiteID() }

// pick selects the read target: the least-loaded member whose circuit is
// not open, with followers winning ties so the leader stays free for
// writes. Index 0 is always a candidate — with every circuit open the
// leader takes the call (and its breaker decides).
func (r *ReplicaSet) pick() int {
	best := 0
	for i := 1; i < len(r.members); i++ {
		if h, ok := r.members[i].(dist.HealthReporter); ok && h.Health().CircuitOpen {
			continue
		}
		if r.inflight[i].Load() <= r.inflight[best].Load() {
			best = i
		}
	}
	return best
}

// evalOn runs one evaluation against member i, tracking its in-flight load.
func (r *ReplicaSet) evalOn(ctx context.Context, i int, q control.Query, opts dist.EvalOptions) (*dist.PartialAnswer, int64, error) {
	r.inflight[i].Add(1)
	defer r.inflight[i].Add(-1)
	return r.members[i].Evaluate(ctx, q, opts)
}

// Evaluate implements dist.SiteClient with replica-aware read routing.
func (r *ReplicaSet) Evaluate(ctx context.Context, q control.Query, opts dist.EvalOptions) (*dist.PartialAnswer, int64, error) {
	i := r.pick()
	if i > 0 {
		pa, n, err := r.evalOn(ctx, i, q, opts)
		switch {
		case err == nil && pa.Epoch >= r.epochFloor.Load():
			r.met.followerReads.Inc()
			return pa, n, nil
		case err == nil:
			// The follower answered from data older than a write this set
			// already committed — epoch revalidation caught it; the leader
			// serves the query instead. (NotModified replies carry the
			// follower's cache epoch, so they are checked the same way.)
			r.ev.Emit(flight.StaleRead, int32(r.SiteID()), opts.QueryID, int64(pa.Epoch), int64(r.epochFloor.Load()))
			pa.Release()
		case ctx.Err() != nil:
			// The caller's budget is gone; a leader retry cannot succeed.
			return nil, 0, err
		default:
			r.met.fallbacks.Inc()
			r.ev.Log().Debug("follower evaluation failed, falling back to leader",
				"site", r.SiteID(), "err", err)
		}
	}
	pa, n, err := r.evalOn(ctx, 0, q, opts)
	if err == nil {
		r.met.leaderReads.Inc()
	}
	return pa, n, err
}

// Precompute implements dist.SiteClient: the leader must build its
// query-independent reduction; followers are warmed best-effort (an
// unreachable follower is not an error — it will precompute lazily on its
// first cached read after it comes back).
func (r *ReplicaSet) Precompute(ctx context.Context) error {
	if err := r.leader.Precompute(ctx); err != nil {
		return err
	}
	for i := 1; i < len(r.members); i++ {
		if err := r.members[i].Precompute(ctx); err != nil {
			if ctx.Err() != nil {
				return err
			}
			r.ev.Log().Debug("follower precompute skipped", "site", r.SiteID(), "err", err)
		}
	}
	return nil
}

// raiseFloor lifts the write watermark to seq (monotonically).
func (r *ReplicaSet) raiseFloor(seq uint64) {
	for {
		cur := r.epochFloor.Load()
		if seq <= cur || r.epochFloor.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Apply implements dist.SiteClient: writes go to the leader only, and a
// write that moved the leader's epoch raises the staleness watermark to it.
func (r *ReplicaSet) Apply(ctx context.Context, rec store.Record) (dist.UpdateResult, error) {
	res, err := r.leader.Apply(ctx, rec)
	if err == nil && res.Seq > 0 {
		r.raiseFloor(res.Seq)
	}
	return res, err
}

// Health implements dist.HealthReporter with the leader's health — the
// signal the coordinator's existing per-site health view expects.
func (r *ReplicaSet) Health() dist.SiteHealth {
	if h, ok := r.leader.(dist.HealthReporter); ok {
		return h.Health()
	}
	return dist.SiteHealth{SiteID: r.leader.SiteID(), Connected: true}
}

// Close releases every member connection that has one.
func (r *ReplicaSet) Close() error {
	var first error
	for _, m := range r.members {
		if c, ok := m.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

var _ dist.SiteClient = (*ReplicaSet)(nil)
var _ dist.HealthReporter = (*ReplicaSet)(nil)
