package fleet

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"ccp/internal/dist"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// FollowerConfig tunes a follower replica. The zero value selects the
// defaults noted on each field.
type FollowerConfig struct {
	// Listen is the address the follower serves read traffic on ("" = do not
	// serve; the follower still replicates, useful for warm standbys and
	// tests that drive the site directly).
	Listen string
	// Workers is the replica site's reduction parallelism (0 = GOMAXPROCS).
	Workers int
	// PullWait is the long-poll budget per pull: how long the leader holds
	// an empty pull open waiting for new records. Default 200ms.
	PullWait time.Duration
	// RetryInterval is the pause after a failed pull (leader unreachable)
	// before the loop tries again. Default 100ms.
	RetryInterval time.Duration
	// Observer, when non-nil, registers the follower's metrics (applied and
	// leader sequence numbers, lag, pulls, bootstraps) on its registry and
	// records replication flight events.
	Observer *obs.Observer
	// Logger receives the follower's structured diagnostics. Nil discards.
	Logger *slog.Logger
}

// pullMax is the record-batch cap per replication pull.
const pullMax = 2048

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.PullWait <= 0 {
		c.PullWait = 200 * time.Millisecond
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 100 * time.Millisecond
	}
	return c
}

// Follower is a read replica of one durable leader site: it bootstraps from
// the leader's consistent snapshot image, then tails the leader's WAL over
// the normal site transport (long-polled pulls), applying each record
// through Site.Apply — the path recovery replay takes — so its epoch tracks
// the leader's exactly. When the leader's checkpointing truncates records
// the follower still needs, it falls back to a fresh snapshot bootstrap
// instead of erroring. With Listen set it serves the read half of the site
// protocol itself; writes are refused (the site is read-only).
type Follower struct {
	cfg    FollowerConfig
	leader *dist.RemoteClient
	addr   string // resolved serving address, "" when not serving

	// site is the current replica site. A re-bootstrap builds a new one and
	// swaps it behind srv, the follower's one read server: evaluations in
	// flight on the old site finish untouched, and no connection is cut.
	site atomic.Pointer[dist.Site]
	srv  *dist.Server

	applied   atomic.Uint64 // last WAL seq applied (or covered by bootstrap)
	leaderSeq atomic.Uint64 // leader's head seq at the last exchange
	boots     atomic.Uint64 // lifetime bootstraps (initial + truncation-forced)

	cancel context.CancelFunc
	done   chan struct{}

	ev obs.Emitter
}

// StartFollower dials the leader, bootstraps a replica of its site, starts
// serving reads (when cfg.Listen is set), and begins tailing the leader's
// WAL. ctx bounds the initial dial and bootstrap only; the replication loop
// runs until Close.
func StartFollower(ctx context.Context, leaderAddr string, cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	f := &Follower{cfg: cfg, done: make(chan struct{})}
	f.ev.Attach(cfg.Observer)
	f.ev.SetLogger(cfg.Logger)
	leader, err := dist.DialConfig(ctx, leaderAddr, dist.ClientConfig{Observer: cfg.Observer, Logger: cfg.Logger})
	if err != nil {
		return nil, fmt.Errorf("fleet: dialing leader %s: %w", leaderAddr, err)
	}
	f.leader = leader
	reg := cfg.Observer.Registry()
	l := obs.Label{Key: "site", Value: strconv.Itoa(leader.SiteID())}
	f.ev.Bind(flight.ReplPull, obs.Series{Count: reg.Counter("ccp_fleet_pulls_total",
		"Replication pulls completed against the leader.", l)})
	f.ev.Bind(flight.ReplApply, obs.Series{Sum: reg.Counter("ccp_fleet_records_applied_total",
		"Leader WAL records applied on this follower.", l)})
	f.ev.Bind(flight.ReplBootstrap, obs.Series{Count: reg.Counter("ccp_fleet_bootstraps_total",
		"Snapshot bootstraps (initial and truncation-forced).", l)})
	f.ev.Bind(flight.ReplTruncated, obs.Series{Count: reg.Counter("ccp_fleet_truncations_total",
		"Pulls answered 'truncated': the leader checkpointed past records this follower still needed.", l)})
	if err := f.bootstrap(ctx); err != nil {
		leader.Close()
		return nil, err
	}
	f.srv = dist.NewServer(f.site.Load(), dist.ServerConfig{Logger: cfg.Logger})
	if reg != nil {
		reg.GaugeFunc("ccp_fleet_applied_seq",
			"Last leader WAL sequence number applied on this follower.",
			func() float64 { return float64(f.applied.Load()) }, l)
		reg.GaugeFunc("ccp_fleet_leader_seq",
			"Leader's WAL head sequence number at the last replication exchange.",
			func() float64 { return float64(f.leaderSeq.Load()) }, l)
		reg.GaugeFunc("ccp_fleet_lag_records",
			"Replication lag: leader head seq minus follower applied seq.",
			func() float64 {
				applied, leader := f.Lag()
				return float64(leader - applied)
			}, l)
		reg.GaugeFunc("ccp_fleet_epoch",
			"The follower site's data epoch (tracks the leader's under replication).",
			func() float64 { return float64(f.site.Load().Epoch()) }, l)
		reg.CounterFunc("ccp_server_requests_total",
			"Requests served by the follower's read server (all ops, across re-bootstraps).",
			func() float64 { return float64(f.srv.Stats().Requests) })
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			leader.Close()
			return nil, fmt.Errorf("fleet: follower cannot bind %s: %w", cfg.Listen, err)
		}
		f.addr = ln.Addr().String()
		go func() {
			if err := f.srv.Serve(ln); err != nil {
				f.ev.Log().Warn("follower serve stopped", "err", err)
			}
		}()
	}
	rctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(rctx)
	return f, nil
}

// bootstrap fetches the leader's snapshot image and installs a fresh
// read-only replica site seeded at the image's covered sequence number.
func (f *Follower) bootstrap(ctx context.Context) error {
	snapSeq, img, leaderSeq, err := f.leader.ReplSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("fleet: bootstrap snapshot: %w", err)
	}
	p, err := partition.ReadPartition(bytes.NewReader(img))
	if err != nil {
		return fmt.Errorf("fleet: decoding bootstrap image: %w", err)
	}
	site := dist.NewSite(p, f.cfg.Workers)
	site.SetLogger(f.cfg.Logger)
	site.SetReadOnly(true)
	if snapSeq > 0 {
		// The image covers snapSeq: a mark replicated at that seq starts the
		// replica's epoch there.
		if _, err := site.Apply(store.Record{Kind: store.KindMark, Seq: snapSeq}); err != nil {
			return fmt.Errorf("fleet: seeding the bootstrap epoch: %w", err)
		}
	}
	f.site.Store(site)
	f.applied.Store(snapSeq)
	f.leaderSeq.Store(leaderSeq)
	f.boots.Add(1)
	f.ev.Emit(flight.ReplBootstrap, int32(p.ID), 0, int64(snapSeq), int64(len(img)))
	return nil
}

// rebootstrap replaces the replica with a fresh snapshot of the leader —
// the truncation fallback — and swaps it behind the read server.
func (f *Follower) rebootstrap(ctx context.Context) error {
	if err := f.bootstrap(ctx); err != nil {
		return err
	}
	f.srv.SetSite(f.site.Load())
	return nil
}

// run is the replication loop: long-poll the leader for records past the
// applied watermark, apply them in order, re-bootstrap on truncation, retry
// on transport failures. Exits when ctx is cancelled (Close).
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	siteID := int32(f.leader.SiteID())
	for ctx.Err() == nil {
		recs, leaderSeq, truncated, err := f.leader.ReplPull(ctx,
			f.applied.Load(), pullMax, f.cfg.PullWait)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.ev.Log().Warn("replication pull failed", "site", siteID, "err", err)
			if !sleepCtx(ctx, f.cfg.RetryInterval) {
				return
			}
			continue
		}
		f.leaderSeq.Store(leaderSeq)
		f.ev.Emit(flight.ReplPull, siteID, 0, int64(leaderSeq), int64(len(recs)))
		if truncated {
			f.ev.Emit(flight.ReplTruncated, siteID, 0, int64(f.applied.Load()), int64(leaderSeq))
			if err := f.rebootstrap(ctx); err != nil {
				f.ev.Log().Error("re-bootstrap failed", "site", siteID, "err", err)
				if !sleepCtx(ctx, f.cfg.RetryInterval) {
					return
				}
			}
			continue
		}
		if len(recs) == 0 {
			continue
		}
		site := f.site.Load()
		bad := false
		for _, rec := range recs {
			if _, err := site.Apply(rec); err != nil {
				// A record the replica cannot apply means it diverged from
				// the leader (or the image raced something it should not
				// have); a fresh bootstrap is the safe recovery.
				f.ev.Log().Error("replicated record failed to apply; re-bootstrapping",
					"site", siteID, "seq", rec.Seq, "err", err)
				if rerr := f.rebootstrap(ctx); rerr != nil {
					f.ev.Log().Error("re-bootstrap failed", "site", siteID, "err", rerr)
				}
				bad = true
				break
			}
			f.applied.Store(rec.Seq)
		}
		if bad {
			continue
		}
		f.ev.Emit(flight.ReplApply, siteID, 0, int64(f.applied.Load()), int64(len(recs)))
	}
}

// sleepCtx pauses for d, reporting false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Site returns the current replica site (replaced wholesale on
// re-bootstrap). In-process callers evaluate against it directly.
func (f *Follower) Site() *dist.Site { return f.site.Load() }

// SiteID returns the partition id this follower replicates.
func (f *Follower) SiteID() int { return f.leader.SiteID() }

// Addr is the follower's read-serving address ("" when not serving).
func (f *Follower) Addr() string { return f.addr }

// Lag reports the follower's applied sequence number and the leader's head
// sequence number from the most recent exchange; leader − applied is the
// replication lag in records.
func (f *Follower) Lag() (applied, leader uint64) {
	applied = f.applied.Load()
	leader = f.leaderSeq.Load()
	if leader < applied {
		// The gauge read raced a bootstrap; clamp rather than underflow.
		leader = applied
	}
	return applied, leader
}

// WaitForSeq blocks until the follower has applied at least seq, polling
// the replication watermark, or until ctx ends.
func (f *Follower) WaitForSeq(ctx context.Context, seq uint64) error {
	for f.applied.Load() < seq {
		if !sleepCtx(ctx, time.Millisecond) {
			return ctx.Err()
		}
	}
	return nil
}

// Close stops the replication loop, shuts down the read server (draining
// in-flight evaluations), and releases the leader connection.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.srv.Shutdown(sctx)
	return f.leader.Close()
}
