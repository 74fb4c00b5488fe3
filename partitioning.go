package ccp

import (
	"context"
	"io"
	"log/slog"
	"net"

	"ccp/internal/dist"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// Partition is one site's share of a distributed graph: its member
// companies, the locally stored shareholdings (including outgoing
// cross-partition edges), and the boundary bookkeeping (virtual nodes and
// in-nodes) the distributed algorithm relies on.
type Partition = partition.Partition

// Partitioning is a full partitioning Π of an ownership graph, with the
// node-to-site mapping.
type Partitioning = partition.Partitioning

// PartitionByAssignment splits g by an explicit node-to-site mapping into k
// partitions.
func PartitionByAssignment(g *Graph, assign []int, k int) (*Partitioning, error) {
	return partition.Split(g, assign, k)
}

// PartitionContiguous splits g into k equal contiguous id ranges — the
// one-country-per-site layout of the generated EU graphs.
func PartitionContiguous(g *Graph, k int) (*Partitioning, error) {
	return partition.ByContiguous(g, k)
}

// ReadPartition deserializes a partition written with
// (*Partition).WriteBinary, letting a site load only its own share of the
// distributed graph.
func ReadPartition(r io.Reader) (*Partition, error) {
	return partition.ReadPartition(r)
}

// ServeSite serves one partition as a worker site on l, speaking the
// coordinator protocol, until l is closed or ctx is cancelled. On
// cancellation the server drains gracefully: in-flight requests finish and
// their responses are written before the connections close.
func ServeSite(ctx context.Context, l net.Listener, p *Partition, workers int) error {
	return dist.Serve(ctx, l, dist.NewSite(p, workers))
}

// SiteServerStats snapshots a site server's lifetime counters: requests
// served, connections accepted, and connections drained at shutdown.
type SiteServerStats = dist.ServerStats

// SiteServer is ServeSite with explicit lifecycle control: the ccpd command
// uses it to shut down gracefully on SIGTERM and report what it served.
type SiteServer struct {
	srv  *dist.Server
	site *dist.Site
}

// NewSiteServer builds a server for one partition. workers <= 0 means
// GOMAXPROCS.
func NewSiteServer(p *Partition, workers int) *SiteServer {
	site := dist.NewSite(p, workers)
	return &SiteServer{srv: dist.NewServer(site, dist.ServerConfig{}), site: site}
}

// StoreOptions configures a site's durable store: fsync policy and
// background-checkpoint cadence. The zero value is safe (fsync on every
// append, default checkpoint cadence).
type StoreOptions = store.Options

// StoreStats snapshots a durable store's state: durable and checkpointed
// sequence numbers, WAL size, and lifetime append/fsync/checkpoint
// counters.
type StoreStats = store.Stats

// NewDurableSiteServer is NewSiteServer with crash recovery: the site's
// updates are logged to a write-ahead log in dir and compacted into
// checkpoints in the background. On start the newest valid checkpoint is
// loaded and the WAL tail replayed, reproducing the exact pre-crash
// partition and epoch; a fresh directory seeds from the provided loader
// instead. Close the store with CloseStore on the way out — a clean close
// writes a final checkpoint so the next start replays nothing.
func NewDurableSiteServer(dir string, seed func() (*Partition, error), workers int, opts StoreOptions) (*SiteServer, error) {
	site, err := dist.OpenDurableSite(dir, seed, workers, opts)
	if err != nil {
		return nil, err
	}
	return &SiteServer{srv: dist.NewServer(site, dist.ServerConfig{}), site: site}, nil
}

// StoreStats reports the durable store's state; ok is false when the server
// was built without one (NewSiteServer).
func (s *SiteServer) StoreStats() (stats StoreStats, ok bool) { return s.site.StoreStats() }

// CloseStore flushes and closes the durable store, writing a final
// checkpoint when there is WAL tail to cover. Call after Shutdown has
// drained in-flight requests; a no-op without a store.
func (s *SiteServer) CloseStore() error { return s.site.CloseStore() }

// Observe registers the server's metrics — requests served, connections,
// in-flight gauge, plus the underlying site's evaluation and reduction
// series — on o's registry. Call once, before Serve; expose the registry
// with StartOpsServer.
func (s *SiteServer) Observe(o *Observer) { s.srv.Observe(o) }

// SetLogger routes the server's structured diagnostics (connection
// lifecycle, shutdown progress, write failures, debug-level reduction
// summaries) to l. Call before Serve; nil discards.
func (s *SiteServer) SetLogger(l *slog.Logger) { s.srv.SetLogger(l) }

// Serve accepts coordinator connections on l until Shutdown is called or the
// listener fails. It returns nil after a Shutdown-initiated stop.
func (s *SiteServer) Serve(l net.Listener) error { return s.srv.Serve(l) }

// Shutdown stops the server gracefully: in-flight requests finish and their
// responses are written before the connections close. If ctx expires first,
// the remaining work is cancelled and connections force-closed.
func (s *SiteServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Stats snapshots the server's lifetime counters.
func (s *SiteServer) Stats() SiteServerStats { return s.srv.Stats() }

// SiteID reports which partition the server serves.
func (s *SiteServer) SiteID() int { return s.site.ID() }
