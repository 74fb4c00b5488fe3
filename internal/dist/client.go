package dist

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/store"
)

// dialTimeout bounds each dial attempt and the identity handshake. It is
// fixed like the server's defaults: no deployment tunes it.
const dialTimeout = 5 * time.Second

// ClientConfig wires a RemoteClient into its process. The zero value dials
// TCP and observes nothing.
type ClientConfig struct {
	// Dialer opens the transport connection; tests inject failing or
	// fault-wrapped connections here. Default: TCP via net.Dialer.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Observer, when non-nil, registers per-site transport metrics
	// (redials, bytes in/out, connection state) on its registry, labeled by
	// the site's dial address, and receives the client's redial events.
	Observer *obs.Observer
	// Logger receives the client's structured transport diagnostics (dial
	// failures, and the transport events as slog lines). Nil discards them.
	Logger *slog.Logger
}

// countConn wraps a net.Conn counting the bytes read (the traffic the
// coordinator receives from the site). Only the client's reader goroutine
// touches the counter.
type countConn struct {
	net.Conn
	read *int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.read += int64(n)
	return n, err
}

// countingWriter tees written byte counts into a (nil-safe) obs counter.
type countingWriter struct {
	w   io.Writer
	ctr *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.ctr.Add(int64(n))
	return n, err
}

// clientMetrics are the byte counters a RemoteClient's connections feed —
// nil on an unobserved client, where every update is a nil-check no-op.
type clientMetrics struct {
	bytesIn, bytesOut *obs.Counter
}

// rpcResult is one routed response plus the bytes it occupied on the wire.
type rpcResult struct {
	resp  *response
	bytes int64
}

// muxConn is one connection generation: a gob stream multiplexing any number
// of in-flight requests, with a single reader goroutine routing responses by
// id. When the reader exits it fails every pending call exactly once and the
// generation is dead for good — the owning RemoteClient then dials a fresh
// generation on the next call instead of serving the stale error forever.
type muxConn struct {
	conn net.Conn

	encMu sync.Mutex // serializes writes; gob encoders are not concurrent-safe
	enc   *gob.Encoder

	read    int64 // total bytes read; owned by the reader goroutine
	bytesIn *obs.Counter

	mu      sync.Mutex
	pending map[uint64]chan rpcResult
	nextID  uint64
	err     error // the transport error that killed this generation
}

func newMuxConn(conn net.Conn, met clientMetrics) *muxConn {
	// Only an observed client pays the writer indirection.
	var w io.Writer = conn
	if met.bytesOut != nil {
		w = countingWriter{w: conn, ctr: met.bytesOut}
	}
	return &muxConn{
		conn:    conn,
		enc:     gob.NewEncoder(w),
		bytesIn: met.bytesIn,
		pending: make(map[uint64]chan rpcResult),
	}
}

// register allocates a request id and parks ch to receive its response.
func (m *muxConn) register(ch chan rpcResult) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, m.err
	}
	m.nextID++
	m.pending[m.nextID] = ch
	return m.nextID, nil
}

// deregister abandons a pending request (caller gave up waiting). The
// response, if it ever arrives, is discarded by the read loop.
func (m *muxConn) deregister(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// readLoop is the generation's only reader: it decodes responses, measures
// the bytes each occupied on the wire (gob reads exactly one length-prefixed
// message per Decode), and routes them to the waiting caller by id.
func (m *muxConn) readLoop() {
	dec := gob.NewDecoder(countConn{Conn: m.conn, read: &m.read})
	for {
		before := m.read
		resp := new(response)
		if err := dec.Decode(resp); err != nil {
			m.fail(err)
			return
		}
		n := m.read - before
		m.bytesIn.Add(n)
		m.mu.Lock()
		ch, ok := m.pending[resp.ID]
		delete(m.pending, resp.ID)
		m.mu.Unlock()
		if ok {
			ch <- rpcResult{resp: resp, bytes: n}
		}
	}
}

// fail marks the generation dead and wakes every in-flight call exactly
// once: pending channels are closed, and any register after this returns the
// error immediately (no request can join a dead generation and hang).
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	m.conn.Close()
}

// RemoteClient talks to a worker site over a multiplexed connection: any
// number of calls can be in flight at once on one conn. Each call is made
// once: a broken connection fails the in-flight calls with a TransportError,
// and the next call redials. All calls take a context; its deadline is
// enforced locally, carried over the wire, and enforced again server-side.
type RemoteClient struct {
	addr string
	cfg  ClientConfig

	mu      sync.Mutex
	conn    *muxConn // live generation, nil when disconnected
	dialing chan struct{}
	closed  bool
	siteID  int
	members []graph.NodeID // from the dial handshake, ascending
	redials int64
	dialed  bool // first successful dial done (redials counts the rest)

	met clientMetrics
	ev  obs.Emitter

	// graphs recycles the decode targets of live partial answers: each
	// evaluate decodes its reduced graph into a pooled arena instead of a
	// fresh allocation, and the coordinator returns it with
	// PartialAnswer.Release once merged.
	graphs sync.Pool
}

// Dial connects to a worker site with default lifecycle configuration and
// fetches its identity. ctx bounds the handshake.
func Dial(ctx context.Context, addr string) (*RemoteClient, error) {
	return DialConfig(ctx, addr, ClientConfig{})
}

// DialConfig is Dial with an explicit dialer, observer and logger.
func DialConfig(ctx context.Context, addr string, cfg ClientConfig) (*RemoteClient, error) {
	if cfg.Dialer == nil {
		cfg.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	c := &RemoteClient{addr: addr, cfg: cfg, siteID: -1}
	c.ev.Attach(c.cfg.Observer)
	c.ev.SetLogger(c.cfg.Logger)
	if reg := c.cfg.Observer.Registry(); reg != nil {
		l := obs.Label{Key: "site_addr", Value: addr}
		c.met = clientMetrics{
			bytesIn:  reg.Counter("ccp_client_bytes_in_total", "Bytes received from the site.", l),
			bytesOut: reg.Counter("ccp_client_bytes_out_total", "Bytes sent to the site.", l),
		}
		c.ev.Bind(flight.Redial, obs.Series{Count: reg.Counter("ccp_client_redials_total", "Connections re-established after a transport failure.", l)})
		reg.GaugeFunc("ccp_client_connected",
			"Whether a live connection to the site is up (0/1).",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.conn != nil {
					return 1
				}
				return 0
			}, l)
	}
	// The identity handshake is bounded by dialTimeout even when ctx has no
	// deadline of its own: a site that accepts and then stalls must not
	// hang Dial forever.
	hctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	resp, _, err := c.roundTrip(hctx, &request{Op: opInfo})
	if err != nil {
		c.Close()
		// A handshake that ran out the dial budget (rather than the
		// caller's own deadline) is a transport-level dial failure.
		var de *DeadlineError
		if errors.As(err, &de) && ctx.Err() == nil {
			err = &TransportError{SiteID: -1, Op: "dial", Err: fmt.Errorf("handshake timed out after %v", dialTimeout)}
		}
		return nil, fmt.Errorf("dist: dialing site %s: %w", addr, err)
	}
	members := make([]graph.NodeID, len(resp.Members))
	for i, v := range resp.Members {
		members[i] = graph.NodeID(v)
	}
	c.mu.Lock()
	c.siteID, c.members = resp.SiteID, members
	c.mu.Unlock()
	return c, nil
}

// acquireConn returns the live connection generation, dialing one if
// necessary. Concurrent callers share one dial.
func (c *RemoteClient) acquireConn(ctx context.Context) (*muxConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errors.New("client closed")
		}
		if c.conn != nil {
			mc := c.conn
			c.mu.Unlock()
			return mc, nil
		}
		if ch := c.dialing; ch != nil {
			c.mu.Unlock()
			select {
			case <-ch:
				continue // re-check: dial finished (either way)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done := make(chan struct{})
		c.dialing = done
		c.mu.Unlock()

		mc, err := c.dialOnce(ctx)

		c.mu.Lock()
		c.dialing = nil
		close(done)
		if err != nil {
			c.mu.Unlock()
			c.ev.Log().Warn("dial failed", "site_addr", c.addr, "err", err)
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			mc.fail(errors.New("client closed"))
			return nil, errors.New("client closed")
		}
		c.conn = mc
		if c.dialed {
			c.redials++
			c.ev.Emit(flight.Redial, int32(c.siteID), 0, c.redials, 0)
		}
		c.dialed = true
		c.mu.Unlock()
		go func() {
			mc.readLoop()
			c.dropConn(mc)
		}()
		return mc, nil
	}
}

// dialOnce makes one dial attempt bounded by dialTimeout.
func (c *RemoteClient) dialOnce(ctx context.Context) (*muxConn, error) {
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	conn, err := c.cfg.Dialer(dctx, c.addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", c.addr, err)
	}
	return newMuxConn(conn, c.met), nil
}

// dropConn retires a dead generation so the next call redials.
func (c *RemoteClient) dropConn(mc *muxConn) {
	c.mu.Lock()
	if c.conn == mc {
		c.conn = nil
	}
	c.mu.Unlock()
}

// Close releases the connection. In-flight calls fail with a TransportError;
// subsequent calls fail immediately.
func (c *RemoteClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	mc := c.conn
	c.conn = nil
	c.mu.Unlock()
	if mc != nil {
		mc.fail(errors.New("client closed"))
	}
	return nil
}

// SiteID implements SiteClient.
func (c *RemoteClient) SiteID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.siteID
}

// Members implements SiteClient: the site's companies as its dial
// handshake listed them.
func (c *RemoteClient) Members() []graph.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members
}

// Precompute implements SiteClient.
func (c *RemoteClient) Precompute(ctx context.Context) error {
	_, _, err := c.roundTrip(ctx, &request{Op: opPrecompute})
	return err
}

// Evaluate implements SiteClient.
func (c *RemoteClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	resp, n, err := c.roundTrip(ctx, &request{
		Op:           opEvaluate,
		S:            int32(q.S),
		T:            int32(q.T),
		UseCache:     opts.UseCache,
		ForcePartial: opts.ForcePartial,
		IfEpoch:      opts.IfEpoch,
		HasIfEpoch:   opts.HasIfEpoch,
		QueryID:      opts.QueryID,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, 0, err
	}
	pa, err := decodePartial(resp, &c.graphs)
	if err != nil {
		return nil, 0, err
	}
	return pa, n, nil
}

// Apply implements SiteClient. Like every call it is made once: a lost
// response leaves the write's outcome unknown.
func (c *RemoteClient) Apply(ctx context.Context, rec store.Record) (UpdateResult, error) {
	resp, _, err := c.roundTrip(ctx, &request{Op: opApply, Record: rec})
	if err != nil {
		return UpdateResult{}, err
	}
	return resp.UpdateRes, nil
}

// roundTrip sends one request and waits for its response, returning the
// bytes the response occupied on the wire. Any number of roundTrips may run
// concurrently. It makes one attempt: a transport failure returns a
// TransportError (the next call redials), and ctx cancellation or deadline a
// typed CancelledError/DeadlineError.
func (c *RemoteClient) roundTrip(ctx context.Context, req *request) (*response, int64, error) {
	opname := opName(req.Op)
	if err := ctx.Err(); err != nil {
		return nil, 0, ctxError(c.SiteID(), opname, err)
	}
	ch := make(chan rpcResult, 1)
	var mc *muxConn
	var id uint64
	for corpses := 0; ; corpses++ {
		var err error
		if mc, err = c.acquireConn(ctx); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, 0, ctxError(c.SiteID(), opname, cerr)
			}
			return nil, 0, &TransportError{SiteID: c.SiteID(), Op: opname, Err: err}
		}
		if id, err = mc.register(ch); err == nil {
			break
		}
		// The generation's reader has failed it but not yet retired it, so
		// acquireConn handed out a corpse. Retire it here and dial again:
		// nothing was sent, so the call is still unmade. A second dead
		// generation in a row is the site's doing, not a race.
		c.dropConn(mc)
		if corpses > 0 {
			return nil, 0, &TransportError{SiteID: c.SiteID(), Op: opname, Err: err}
		}
	}
	req.ID = id

	// The write deadline is the connection's, not the call's, so it is set
	// under the writer lock: a call that set it outside would cut short the
	// write of whichever call holds the lock. A call whose deadline passed
	// while it waited for the writer sends nothing.
	mc.encMu.Lock()
	dl, hasDL := ctx.Deadline()
	rem := time.Until(dl)
	if err := ctx.Err(); err != nil || hasDL && rem <= 0 {
		mc.encMu.Unlock()
		mc.deregister(id)
		if err == nil {
			err = context.DeadlineExceeded
		}
		return nil, 0, ctxError(c.SiteID(), opname, err)
	}
	req.DeadlineNS = 0
	if hasDL {
		req.DeadlineNS = rem.Nanoseconds()
	}
	mc.conn.SetWriteDeadline(dl) // the zero time when ctx has no deadline
	err := mc.enc.Encode(req)
	mc.encMu.Unlock()
	if err != nil {
		mc.deregister(id)
		// A failed or partial write poisons the gob stream for every other
		// in-flight call on this generation; retire it.
		err = fmt.Errorf("sending request: %w", err)
		mc.fail(err)
		c.dropConn(mc)
		return nil, 0, &TransportError{SiteID: c.SiteID(), Op: opname, Err: err}
	}

	select {
	case r, ok := <-ch:
		if !ok {
			mc.mu.Lock()
			err := mc.err
			mc.mu.Unlock()
			if err == nil {
				err = errors.New("connection closed")
			}
			return nil, 0, &TransportError{SiteID: c.SiteID(), Op: opname,
				Err: fmt.Errorf("reading response: %w", err)}
		}
		if r.resp.Err != "" {
			switch r.resp.Code {
			case codeDeadline:
				return nil, 0, &DeadlineError{SiteID: r.resp.SiteID, Op: opname,
					Err: fmt.Errorf("site-side: %s: %w", r.resp.Err, context.DeadlineExceeded)}
			case codeCancelled:
				return nil, 0, &CancelledError{SiteID: r.resp.SiteID, Op: opname,
					Err: fmt.Errorf("site-side: %s: %w", r.resp.Err, context.Canceled)}
			}
			return nil, 0, &SiteError{SiteID: r.resp.SiteID, Op: opname, Msg: r.resp.Err}
		}
		return r.resp, r.bytes, nil
	case <-ctx.Done():
		// Abandon the call but keep the generation: a late response is
		// discarded by id, and other in-flight calls continue.
		mc.deregister(id)
		return nil, 0, ctxError(c.SiteID(), opname, ctx.Err())
	}
}
