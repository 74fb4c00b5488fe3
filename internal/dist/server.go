package dist

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
)

// ServerConfig configures a site server.
type ServerConfig struct {
	// Logger receives the server's structured diagnostics (connection
	// lifecycle, shutdown progress, write failures). Nil discards them.
	Logger *slog.Logger
}

const (
	// writeTimeout bounds writing one response, so a stalled client cannot
	// wedge the shared encoder and starve every other in-flight response on
	// the connection. Connections carry no idle timeout: the coordinator
	// keeps them open between batches.
	writeTimeout = 30 * time.Second
	// drainTimeout bounds the graceful drain of the ctx-driven Serve.
	drainTimeout = 10 * time.Second
)

// ServerStats is a snapshot of a site server's lifetime counters, the
// numbers the cmds print in their one-line shutdown summary.
type ServerStats struct {
	// Requests counts requests served (all ops, including failed ones).
	Requests int64
	// ConnsAccepted counts connections accepted.
	ConnsAccepted int64
	// ConnsDrained counts connections that finished their in-flight requests
	// and closed cleanly during shutdown.
	ConnsDrained int64
}

// Server serves one Site over any number of listeners and connections,
// multiplexing concurrent requests per connection. Shutdown is graceful:
// new requests stop being read, in-flight requests finish and their
// responses are written, then connections close.
type Server struct {
	site *Site // the one site this server serves
	log  *slog.Logger

	// baseCtx parents every request handler; forceCancel fires when a
	// Shutdown deadline expires, stopping in-flight reductions at their next
	// round boundary.
	baseCtx     context.Context
	forceCancel context.CancelFunc

	requests atomic.Int64
	accepted atomic.Int64
	drained  atomic.Int64
	inflight atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	shutdown  bool

	connWG sync.WaitGroup
}

// NewServer builds a server for one site.
func NewServer(site *Site, cfg ServerConfig) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		site:        site,
		log:         obs.LoggerOr(cfg.Logger),
		baseCtx:     ctx,
		forceCancel: cancel,
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
}

// SetLogger replaces the server's and its site's logger (nil discards).
// Call before Serve.
func (s *Server) SetLogger(l *slog.Logger) {
	s.log = obs.LoggerOr(l)
	s.site.SetLogger(l)
}

// Observe exposes the server's existing lifetime counters as scrape-time
// sampled series (no double bookkeeping), plus an in-flight request gauge,
// and wires the underlying site's metrics. Call once, before Serve.
func (s *Server) Observe(o *obs.Observer) {
	reg := o.Registry()
	reg.CounterFunc("ccp_server_requests_total",
		"Requests served by the site server (all ops, including failed ones).",
		func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("ccp_server_conns_accepted_total",
		"Connections accepted by the site server.",
		func() float64 { return float64(s.accepted.Load()) })
	reg.CounterFunc("ccp_server_conns_drained_total",
		"Connections that finished their in-flight requests and closed cleanly during shutdown.",
		func() float64 { return float64(s.drained.Load()) })
	reg.GaugeFunc("ccp_server_inflight_requests",
		"Requests currently being served.",
		func() float64 { return float64(s.inflight.Load()) })
	s.site.Observe(o)
}

// Stats snapshots the server's lifetime counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:      s.requests.Load(),
		ConnsAccepted: s.accepted.Load(),
		ConnsDrained:  s.drained.Load(),
	}
}

// Serve accepts connections on l until Shutdown is called or the listener
// fails. It returns nil after a Shutdown-initiated stop.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return errors.New("dist: server is shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			// A listener closed by Shutdown or by its owner is a clean stop;
			// established connections keep being served.
			if s.isShutdown() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("dist: accept: %w", err)
		}
		s.accepted.Add(1)
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) isShutdown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// Shutdown stops the server gracefully: listeners close, blocked request
// reads are kicked loose via an expired read deadline, in-flight requests
// finish and write their responses, and every connection's reader goroutine
// exits. If ctx expires first, in-flight handlers are cancelled and the
// remaining connections force-closed; ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.log.Info("server shutting down", "site", s.site.ID(), "inflight", s.inflight.Load())
	s.mu.Lock()
	already := s.shutdown
	s.shutdown = true
	for l := range s.listeners {
		l.Close()
	}
	for conn := range s.conns {
		// Unblock the connection's Decode; the serve loop sees the shutdown
		// flag, drains its in-flight handlers, and exits.
		conn.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	if already {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("server drained", "site", s.site.ID(), "conns_drained", s.drained.Load())
		return nil
	case <-ctx.Done():
		s.log.Warn("server drain deadline expired, force-closing", "site", s.site.ID())
		s.forceCancel()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serveConn runs one connection: a single reader decodes requests and hands
// each to its own handler goroutine, so a long evaluation never blocks the
// requests multiplexed behind it. The loop exits when the peer hangs up or
// Shutdown kicks the read deadline — either way the in-flight handlers are
// drained (their responses written) before the connection closes.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex // serializes response writes; gob encoders are not concurrent-safe
	var reqWG sync.WaitGroup
	for {
		req := new(request)
		if err := dec.Decode(req); err != nil {
			reqWG.Wait() // in-flight responses finish before the conn closes
			if s.isShutdown() {
				s.drained.Add(1)
			}
			return
		}
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			s.handle(conn, enc, &encMu, req)
		}()
	}
}

// handle serves one request, re-anchoring the wire-carried relative deadline
// on the server's own clock, and writes the response under a write deadline.
func (s *Server) handle(conn net.Conn, enc *gob.Encoder, encMu *sync.Mutex, req *request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if req.DeadlineNS > 0 {
		ctx, cancel = context.WithTimeout(ctx, durationNS(req.DeadlineNS))
	}
	resp := s.serve(ctx, req)
	cancel()
	resp.ID = req.ID

	encMu.Lock()
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	// A write failure is unrecoverable for the whole connection (the gob
	// stream is positional); closing it fails the client's pending calls and
	// lets it redial.
	if err := enc.Encode(resp); err != nil {
		s.log.Warn("response write failed, closing connection",
			"site", s.site.ID(), "op", opName(req.Op), "err", err)
		conn.Close()
	}
	encMu.Unlock()
}

// serve executes one decoded request against the server's site.
func (s *Server) serve(ctx context.Context, req *request) *response {
	siteID := s.site.ID()
	switch req.Op {
	case opInfo:
		ids := s.site.MemberIDs()
		members := make([]int32, len(ids))
		for i, v := range ids {
			members[i] = int32(v)
		}
		return &response{SiteID: siteID, Members: members}
	case opPrecompute:
		stats, err := s.site.Precompute(ctx)
		if err != nil {
			return errResponse(siteID, err)
		}
		return &response{SiteID: siteID, Stats: stats}
	case opEvaluate:
		q := control.Query{S: graph.NodeID(req.S), T: graph.NodeID(req.T)}
		pa, err := s.site.Evaluate(ctx, q, EvalOptions{
			UseCache:     req.UseCache,
			ForcePartial: req.ForcePartial,
			IfEpoch:      req.IfEpoch,
			HasIfEpoch:   req.HasIfEpoch,
			QueryID:      req.QueryID,
			Trace:        req.Trace,
		})
		if err != nil {
			return errResponse(siteID, err)
		}
		resp := encodePartial(pa)
		// The reduced graph is serialized, so its pooled scratch is free for
		// the site's next evaluation.
		pa.Release()
		return resp
	case opApply:
		res, err := s.site.Apply(req.Record)
		if err != nil {
			return errResponse(siteID, err)
		}
		return &response{SiteID: siteID, UpdateRes: res}
	default:
		return errResponse(siteID, fmt.Errorf("unknown op %d", req.Op))
	}
}

// Serve serves site on l until ctx is cancelled, then shuts down gracefully
// (bounded by drainTimeout) and returns nil. A listener error surfaces as a
// non-nil error. It is the one-call server used by ServeSite and the tests;
// cmds that want the shutdown summary build a Server themselves.
func Serve(ctx context.Context, l net.Listener, site *Site) error {
	srv := NewServer(site, ServerConfig{})
	watcherDone := make(chan struct{})
	serveDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			srv.Shutdown(sctx)
		case <-serveDone:
		}
	}()
	err := srv.Serve(l)
	close(serveDone)
	<-watcherDone
	if ctx.Err() != nil {
		return nil
	}
	return err
}
