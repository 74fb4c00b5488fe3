package ccp

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/fleet"
	"ccp/internal/obs"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// ClusterOptions configures a distributed deployment.
type ClusterOptions struct {
	// UseCache serves sites not storing the query endpoints from their
	// pre-computed query-independent reductions.
	UseCache bool
	// SiteWorkers is each site's reduction parallelism (0 = GOMAXPROCS).
	SiteWorkers int
	// CoordinatorWorkers is the merge-reduction parallelism.
	CoordinatorWorkers int
	// Concurrency is the number of batch queries ControlsBatch keeps in
	// flight at once (<= 1 evaluates the batch serially).
	Concurrency int
	// MaxInFlight, when > 0, enables coordinator-side admission control:
	// at most this many queries execute at once, up to MaxQueuedQueries
	// arrivals wait (each at most MaxQueueWait) for a slot, and everything
	// beyond that is shed immediately with an *OverloadError instead of
	// piling onto a saturated serving tier. 0 disables the gate entirely.
	MaxInFlight int
	// MaxQueuedQueries bounds the admission wait queue (with MaxInFlight
	// set). 0 selects the default (2×MaxInFlight).
	MaxQueuedQueries int
	// MaxQueueWait bounds how long one arrival waits for an execution slot
	// before being shed (with MaxInFlight set). 0 selects the default (50ms).
	MaxQueueWait time.Duration
	// Observer, when non-nil, instruments the whole cluster-side query
	// path: coordinator latency/phase histograms and cache counters,
	// per-site transport metrics (remote clusters), site evaluation and
	// reduction metrics (in-process clusters), and — when the observer's
	// slow-query log is enabled — per-query stitched traces. Nil runs
	// uninstrumented at the cost of pointer checks.
	Observer *Observer
	// Logger receives the cluster's structured diagnostics: coordinator
	// warnings (failed queries, failed updates, slow-query promotions),
	// transport events (redials, circuit transitions), and — at debug level
	// — per-reduction summaries from in-process sites. Nil discards them.
	Logger *slog.Logger
}

// SiteHealth is a point-in-time snapshot of one site's transport health:
// connection state, circuit-breaker position, and redial/retry counters.
type SiteHealth = dist.SiteHealth

// The typed errors of the distributed query path. Use errors.As to pick the
// failure class out of a query error, or errors.Is against
// context.DeadlineExceeded / context.Canceled for the coarse distinction.
type (
	// SiteError: the site was reachable but failed to execute the operation.
	SiteError = dist.SiteError
	// TransportError: the connection to the site broke; site state unknown.
	TransportError = dist.TransportError
	// DeadlineError: the call's deadline expired before the site answered.
	DeadlineError = dist.DeadlineError
	// CancelledError: the caller cancelled the query before it completed.
	CancelledError = dist.CancelledError
	// OverloadError: the coordinator's admission gate shed the query before
	// it started (see ClusterOptions.MaxInFlight).
	OverloadError = dist.OverloadError
)

// ErrCircuitOpen is found (via errors.Is) inside a TransportError when a
// site's circuit breaker rejected the call without touching the network.
var ErrCircuitOpen = dist.ErrCircuitOpen

// QueryMetrics reports where a distributed query's time and traffic went.
type QueryMetrics struct {
	// MaxSiteTime is the slowest site's evaluation time; sites evaluate in
	// parallel.
	MaxSiteTime time.Duration
	// CoordinatorTime covers merging the partial answers and the final
	// reduction.
	CoordinatorTime time.Duration
	// BytesTransferred counts partial-answer payload bytes.
	BytesTransferred int64
	// PartialNodes / PartialEdges total the returned reduced partitions.
	PartialNodes, PartialEdges int
	// MergedNodes / MergedEdges size the assembled graph at the coordinator.
	MergedNodes, MergedEdges int
	// DecidedBySite is the id of the site that answered alone, or -1 when
	// the coordinator had to merge.
	DecidedBySite int
	// CacheHits counts sites served from the pre-computed cache.
	CacheHits int
	// CoordCacheHits counts sites whose partial answer was served from the
	// coordinator's own copy after an epoch revalidation (no payload
	// crossed the network).
	CoordCacheHits int
}

// queryMetrics converts the internal metrics to the public view.
func queryMetrics(m *dist.Metrics) QueryMetrics {
	return QueryMetrics{
		MaxSiteTime:      m.SiteElapsedMax,
		CoordinatorTime:  m.CoordElapsed,
		BytesTransferred: m.Bytes,
		PartialNodes:     m.PartialNodes,
		PartialEdges:     m.PartialEdges,
		MergedNodes:      m.MGraphNodes,
		MergedEdges:      m.MGraphEdges,
		DecidedBySite:    m.DecidedBy,
		CacheHits:        m.CacheHits,
		CoordCacheHits:   m.CoordCacheHits,
	}
}

// Cluster is a distributed company-control deployment: one coordinator over
// a set of partition sites (in-process, or remote over TCP). Every query
// method takes a context; its deadline travels with each site call and is
// enforced on both ends of the wire, and cancellation stops site-side
// reductions at their next rule round.
type Cluster struct {
	coord    *dist.Coordinator
	gate     *fleet.Gate // non-nil when MaxInFlight enabled admission control
	numSites int
	sites    []*dist.Site      // non-nil only for in-process clusters
	clients  []dist.SiteClient // held for Close
}

// newCluster wraps a coordinator built from dopts, keeping the admission
// gate (if any) reachable for the audit probes.
func newCluster(coord *dist.Coordinator, dopts dist.Options, numSites int, sites []*dist.Site, clients []dist.SiteClient) *Cluster {
	c := &Cluster{coord: coord, numSites: numSites, sites: sites, clients: clients}
	if g, ok := dopts.AdmissionGate.(*fleet.Gate); ok {
		c.gate = g
	}
	return c
}

// NewLocalCluster partitions g into k contiguous-range partitions served by
// in-process sites — the simplest way to exercise the distributed algorithm.
func NewLocalCluster(g *Graph, k int, opts ClusterOptions) (*Cluster, error) {
	pi, err := partition.ByContiguous(g, k)
	if err != nil {
		return nil, err
	}
	return NewClusterFromPartitioning(pi, opts)
}

// NewClusterFromAssignment partitions g by an explicit node-to-site mapping
// (for example, the country of each company) and serves it in-process.
func NewClusterFromAssignment(g *Graph, assign []int, k int, opts ClusterOptions) (*Cluster, error) {
	pi, err := partition.Split(g, assign, k)
	if err != nil {
		return nil, err
	}
	return NewClusterFromPartitioning(pi, opts)
}

func (o ClusterOptions) distOptions() dist.Options {
	opts := dist.Options{
		UseCache:    o.UseCache,
		Workers:     o.CoordinatorWorkers,
		Concurrency: o.Concurrency,
		Observer:    o.Observer,
		Logger:      o.Logger,
	}
	if o.MaxInFlight > 0 {
		opts.AdmissionGate = fleet.NewGate(fleet.GateConfig{
			MaxInFlight:  o.MaxInFlight,
			MaxQueue:     o.MaxQueuedQueries,
			MaxQueueWait: o.MaxQueueWait,
			Observer:     o.Observer,
		})
	}
	return opts
}

// NewClusterFromPartitioning serves an existing partitioning in-process.
func NewClusterFromPartitioning(pi *partition.Partitioning, opts ClusterOptions) (*Cluster, error) {
	clients := make([]dist.SiteClient, len(pi.Parts))
	sites := make([]*dist.Site, len(pi.Parts))
	for i, p := range pi.Parts {
		sites[i] = dist.NewSite(p, opts.SiteWorkers)
		if opts.Observer != nil {
			sites[i].Observe(opts.Observer)
		}
		if opts.Logger != nil {
			sites[i].SetLogger(opts.Logger)
		}
		clients[i] = &dist.LocalClient{Site: sites[i], MeasureBytes: true}
	}
	dopts := opts.distOptions()
	coord := dist.NewCoordinator(clients, dopts)
	return newCluster(coord, dopts, len(sites), sites, clients), nil
}

// ConnectCluster builds a coordinator over remote worker sites (started with
// ServeSite or the ccpd command) at the given addresses. ctx bounds the
// connection handshakes. A site that later becomes unreachable is redialed
// with capped exponential backoff; repeated failures trip its circuit
// breaker (see Cluster.Health).
func ConnectCluster(ctx context.Context, addrs []string, opts ClusterOptions) (*Cluster, error) {
	sites := make([][]string, len(addrs))
	for i, addr := range addrs {
		sites[i] = []string{addr}
	}
	return ConnectReplicatedCluster(ctx, sites, opts)
}

// ParseReplicaAddrs splits one -sites style spec into per-site replica
// address lists: sites are comma-separated, and within a site the leader and
// its follower replicas are joined with "+" — for example
// "lead0:7001+f0a:7101,lead1:7002" is two sites, the first with one follower.
func ParseReplicaAddrs(spec string) [][]string {
	var sites [][]string
	for _, s := range strings.Split(spec, ",") {
		var addrs []string
		for _, a := range strings.Split(s, "+") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			sites = append(sites, addrs)
		}
	}
	return sites
}

// ConnectReplicatedCluster is ConnectCluster over replica sets: each site is
// a leader address plus any number of follower replica addresses (started
// with ccpd -replica-of). Reads are routed to the least-loaded healthy
// replica and verified fresh against the site's write watermark (a stale or
// failing follower falls back to the leader in the same call); writes go to
// leaders only. A site given as a single address is dialed directly, with no
// replica routing in front of it.
func ConnectReplicatedCluster(ctx context.Context, sites [][]string, opts ClusterOptions) (*Cluster, error) {
	cfg := dist.ClientConfig{Observer: opts.Observer, Logger: opts.Logger}
	var clients []dist.SiteClient
	closeAll := func() {
		for _, cl := range clients {
			if c, ok := cl.(interface{ Close() error }); ok {
				c.Close()
			}
		}
	}
	for _, addrs := range sites {
		if len(addrs) == 0 {
			closeAll()
			return nil, fmt.Errorf("ccp: empty replica address list")
		}
		members := make([]dist.SiteClient, 0, len(addrs))
		for i, addr := range addrs {
			c, err := dist.DialConfig(ctx, addr, cfg)
			if err != nil {
				// A dead leader fails the connect; a dead follower is routed
				// around — the whole point of replicas is that losing one
				// must not take queries down with it.
				if i > 0 && ctx.Err() == nil {
					obs.LoggerOr(opts.Logger).Warn("follower replica unreachable, serving without it",
						"addr", addr, "err", err)
					continue
				}
				for _, m := range members {
					m.(*dist.RemoteClient).Close()
				}
				closeAll()
				return nil, fmt.Errorf("ccp: connecting site %s: %w", addr, err)
			}
			members = append(members, c)
		}
		if len(members) == 1 {
			clients = append(clients, members[0])
			continue
		}
		clients = append(clients, fleet.NewReplicaSet(members[0], members[1:],
			fleet.ReplicaSetConfig{Observer: opts.Observer, Logger: opts.Logger}))
	}
	dopts := opts.distOptions()
	coord := dist.NewCoordinator(clients, dopts)
	return newCluster(coord, dopts, len(sites), nil, clients), nil
}

// Close releases the cluster's site connections. In-flight queries fail with
// a *TransportError; the remote sites themselves keep running. Closing an
// in-process cluster is a no-op. Safe to call more than once.
func (c *Cluster) Close() error {
	for _, cl := range c.clients {
		// Remote clients and replica sets hold connections; in-process
		// LocalClients have nothing to release.
		if rc, ok := cl.(interface{ Close() error }); ok {
			rc.Close()
		}
	}
	return nil
}

// Health snapshots the transport health of every site: connection state,
// circuit-breaker position, redial and retry counters. In-process sites
// always report connected.
func (c *Cluster) Health() []SiteHealth { return c.coord.Health() }

// Precompute builds every site's query-independent reduction offline, so
// that later queries touch at most the two sites storing their endpoints.
func (c *Cluster) Precompute(ctx context.Context) error { return c.coord.PrecomputeAll(ctx) }

// Controls answers q_c(s, t) over the distributed graph. The context's
// deadline is enforced at every site (a stalled site fails the query with a
// typed *DeadlineError within the deadline, not at the TCP timeout), and
// cancelling ctx stops the site-side reductions promptly.
func (c *Cluster) Controls(ctx context.Context, s, t NodeID) (bool, QueryMetrics, error) {
	ans, m, err := c.coord.Answer(ctx, control.Query{S: s, T: t})
	if err != nil {
		return false, QueryMetrics{}, err
	}
	return ans, queryMetrics(m), nil
}

// ControlsTraced is Controls plus the stitched cross-site trace of the
// query: the coordinator's merge and reduce layers, one wire.rpc envelope
// per site that replied, and every site's own events re-based onto the
// coordinator's timeline. Print it with QueryTrace.WriteTimeline. The
// trace is returned even when the query failed (it shows how far the query
// got); it is nil only when the cluster itself rejected the call.
func (c *Cluster) ControlsTraced(ctx context.Context, s, t NodeID) (bool, QueryMetrics, *QueryTrace, error) {
	ans, m, tr, err := c.coord.AnswerTraced(ctx, control.Query{S: s, T: t})
	if err != nil {
		return false, QueryMetrics{}, tr, err
	}
	return ans, queryMetrics(m), tr, nil
}

// ControlsBatch answers a batch of queries, amortizing the pre-computed
// partial answers across all of them (the paper's thousands-of-queries-per-
// minute production setting). Up to ClusterOptions.Concurrency queries run
// in flight at once. Queries are given as (s, t) pairs; the returned
// metrics aggregate the whole batch (DecidedBySite is always -1). A
// cancelled or expired ctx abandons the queries not yet started and returns
// the first incomplete query's error.
func (c *Cluster) ControlsBatch(ctx context.Context, queries [][2]NodeID) ([]bool, QueryMetrics, error) {
	qs := make([]control.Query, len(queries))
	for i, q := range queries {
		qs[i] = control.Query{S: q[0], T: q[1]}
	}
	ans, m, err := c.coord.AnswerBatch(ctx, qs)
	if err != nil {
		return nil, QueryMetrics{}, err
	}
	return ans, queryMetrics(m), nil
}

// AddStake records that owner takes the fraction w of owned, routing the
// change to the sites concerned and invalidating their cached partial
// answers. Parallel stakes merge by summing.
func (c *Cluster) AddStake(ctx context.Context, owner, owned NodeID, w float64) error {
	return c.coord.ApplyUpdate(ctx, dist.StakeUpdate{Owner: owner, Owned: owned, Weight: w})
}

// RemoveStake divests owner's stake in owned entirely.
func (c *Cluster) RemoveStake(ctx context.Context, owner, owned NodeID) error {
	return c.coord.ApplyUpdate(ctx, dist.StakeUpdate{Owner: owner, Owned: owned, Remove: true})
}

// Invalidate marks site i's data as changed, dropping its cached partial
// answer (in-process clusters only).
func (c *Cluster) Invalidate(site int) error {
	if c.sites == nil {
		return fmt.Errorf("ccp: Invalidate is only available on in-process clusters")
	}
	if site < 0 || site >= len(c.sites) {
		return fmt.Errorf("ccp: no site %d", site)
	}
	_, err := c.sites[site].Apply(store.Record{Kind: store.KindMark})
	return err
}

// Sites returns the number of worker sites.
func (c *Cluster) Sites() int { return c.numSites }
