package dist

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// This file holds the deterministic fault-injection tests for the transport
// lifecycle: per-call deadlines, retry of idempotent calls, the
// consecutive-failure circuit breaker, and redial after connection death.
// Faults are injected at two seams — faultConn at the byte level (via
// ClientConfig.Dialer) and faultClient at the SiteClient level — so no test
// depends on real network failures or timing races.

// faultConn wraps a net.Conn and injects byte-level transport faults: once
// armed, reads or writes fail with the configured error instead of touching
// the wire.
type faultConn struct {
	net.Conn
	mu       sync.Mutex
	readErr  error
	writeErr error
}

func (f *faultConn) failReads(err error) {
	f.mu.Lock()
	f.readErr = err
	f.mu.Unlock()
}

func (f *faultConn) failWrites(err error) {
	f.mu.Lock()
	f.writeErr = err
	f.mu.Unlock()
}

func (f *faultConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	err := f.readErr
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	err := f.writeErr
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return f.Conn.Write(p)
}

// faultClient wraps a SiteClient, delaying and/or failing Evaluate. The
// delay honors ctx — a stalled site still returns promptly when the caller's
// deadline fires — so coordinator fail-fast paths are testable in-process.
type faultClient struct {
	SiteClient
	delay time.Duration
	err   error
}

func (c *faultClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	if c.delay > 0 {
		t := time.NewTimer(c.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, 0, ctxError(c.SiteID(), "evaluate", ctx.Err())
		}
	}
	if c.err != nil {
		return nil, 0, c.err
	}
	return c.SiteClient.Evaluate(ctx, q, opts)
}

// scriptedSite speaks just enough of the wire protocol for fault scripts: it
// answers the opInfo handshake with siteID and hands every other request to
// handle. handle returns the response to send (nil = swallow the request, so
// the client only hears back via its own deadline) and whether to close the
// connection afterwards.
func scriptedSite(siteID int, handle func(*request) (*response, bool)) func(net.Conn) {
	return func(conn net.Conn) {
		dec := gob.NewDecoder(conn)
		enc := gob.NewEncoder(conn)
		for {
			req := new(request)
			if err := dec.Decode(req); err != nil {
				conn.Close()
				return
			}
			var resp *response
			closeAfter := false
			if req.Op == opInfo {
				resp = &response{SiteID: siteID}
			} else {
				resp, closeAfter = handle(req)
			}
			if resp != nil {
				resp.ID = req.ID
				if err := enc.Encode(resp); err != nil {
					conn.Close()
					return
				}
			}
			if closeAfter {
				conn.Close()
				return
			}
		}
	}
}

// pipeDialer is a ClientConfig.Dialer backed by net.Pipe: each dial spawns
// serve on the server end. No TCP, no ports, fully deterministic.
func pipeDialer(serve func(net.Conn)) func(context.Context, string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		cli, srv := net.Pipe()
		go serve(srv)
		return cli, nil
	}
}

// waitHealth polls the client's health until ok accepts it or the budget
// runs out (readLoop teardown is asynchronous after a conn dies).
func waitHealth(t *testing.T, c *RemoteClient, ok func(SiteHealth) bool) SiteHealth {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := c.Health()
		if ok(h) {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never converged: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStalledSiteReturnsDeadlineError is the acceptance scenario at the
// transport layer: a site that accepts requests and never answers must not
// hang the client. A 100ms deadline returns a typed *DeadlineError within 2x
// the deadline.
func TestStalledSiteReturnsDeadlineError(t *testing.T) {
	stall := scriptedSite(0, func(req *request) (*response, bool) {
		return nil, false // swallow: never respond, keep reading
	})
	c, err := DialConfig(context.Background(), "stalled", ClientConfig{Dialer: pipeDialer(stall)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, _, err = c.Evaluate(ctx, control.Query{S: 0, T: 1}, EvalOptions{})
	elapsed := time.Since(start)

	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *DeadlineError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v does not unwrap to context.DeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("stalled call took %v, want <= %v", elapsed, 2*budget)
	}
	// The miss counts toward the circuit breaker.
	if h := c.Health(); h.ConsecutiveFailures == 0 {
		t.Fatalf("deadline miss not recorded: %+v", h)
	}
}

// TestClientRedialsAfterConnDeath is satellite behavior #1: a broken
// connection fails in-flight calls once and the next call redials instead of
// serving the stale error forever.
func TestClientRedialsAfterConnDeath(t *testing.T) {
	addr := startServer(t, testSite(t))
	c, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.mu.Lock()
	mc := c.conn
	c.mu.Unlock()
	if mc == nil {
		t.Fatal("no live connection after dial")
	}
	mc.conn.Close()
	waitHealth(t, c, func(h SiteHealth) bool { return !h.Connected })

	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate after conn death: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
	h := c.Health()
	if h.Redials < 1 {
		t.Fatalf("redials = %d, want >= 1 (health %+v)", h.Redials, h)
	}
	if h.ConsecutiveFailures != 0 || !h.Connected {
		t.Fatalf("health after recovery: %+v", h)
	}
}

// TestIdempotentRetryAfterMidCallConnLoss: the connection dies while an
// evaluate is in flight. Evaluate is idempotent, so the client transparently
// redials and resends; the caller sees a success.
func TestIdempotentRetryAfterMidCallConnLoss(t *testing.T) {
	addr := startServer(t, testSite(t))
	var dials atomic.Int64
	killFirst := scriptedSite(0, func(req *request) (*response, bool) {
		return nil, true // close without answering: outcome unknown
	})
	cfg := ClientConfig{
		Dialer: func(ctx context.Context, a string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				cli, srv := net.Pipe()
				go killFirst(srv)
				return cli, nil
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", a)
		},
	}
	c, err := DialConfig(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
	h := c.Health()
	if h.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (health %+v)", h.Retries, h)
	}
	if got := dials.Load(); got < 2 {
		t.Fatalf("dials = %d, want >= 2 (redial after the kill)", got)
	}
}

// TestNonIdempotentUpdateNotRetried: a mid-flight connection loss during an
// update must surface as an error, never as a silent replay — the stake may
// or may not have been applied. The client is not sticky: the next call
// redials and succeeds.
func TestNonIdempotentUpdateNotRetried(t *testing.T) {
	addr := startServer(t, testSite(t))
	var dials atomic.Int64
	killUpdate := scriptedSite(0, func(req *request) (*response, bool) {
		return nil, true
	})
	cfg := ClientConfig{
		Dialer: func(ctx context.Context, a string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				cli, srv := net.Pipe()
				go killUpdate(srv)
				return cli, nil
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", a)
		},
	}
	c, err := DialConfig(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Apply(context.Background(), StakeUpdate{Owner: 0, Owned: 1, Weight: 0.4}.record())
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TransportError", err, err)
	}
	if h := c.Health(); h.Retries != 0 {
		t.Fatalf("non-idempotent update retried %d times", h.Retries)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d during the failed update, want 1 (no retry redial)", got)
	}

	// Not sticky: the follow-up update rides a fresh connection.
	res, err := c.Apply(context.Background(), StakeUpdate{Owner: 0, Owned: 1, Weight: 0.4}.record())
	if err != nil {
		t.Fatalf("update after conn loss: %v", err)
	}
	if !res.Stored {
		t.Fatalf("update result = %+v", res)
	}
	if got := dials.Load(); got < 2 {
		t.Fatalf("dials = %d after recovery call, want >= 2", got)
	}
}

// TestDeadGenerationStillInstalledIsRetired pins the interleaving behind the
// two tests above failing once in a few hundred -race runs: a generation's
// reader marks it failed a moment before it retires it, so a call can be
// handed a corpse that is still installed. Nothing of that call was sent, so
// it must retire the corpse and go out on a fresh connection — without
// spending a retry, and even when the op is one that is never retried.
func TestDeadGenerationStillInstalledIsRetired(t *testing.T) {
	c, err := DialConfig(context.Background(), startServer(t, testSite(t)), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fail the live generation by hand exactly as far as readLoop has got
	// when the race strikes: err set, still c.conn.
	c.mu.Lock()
	corpse := c.conn
	c.mu.Unlock()
	corpse.mu.Lock()
	corpse.err = errors.New("EOF")
	corpse.mu.Unlock()
	defer corpse.fail(nil) // closes the socket; its reader exits

	res, err := c.Apply(context.Background(), StakeUpdate{Owner: 2, Owned: 3, Weight: 0.6}.record())
	if err != nil {
		t.Fatalf("update handed a dead generation: %v", err)
	}
	if !res.Stored || !res.Changed {
		t.Fatalf("update result = %+v", res)
	}
	if h := c.Health(); h.Retries != 0 || h.Redials != 1 || !h.Connected {
		t.Fatalf("health after the redial = %+v, want 0 retries, 1 redial, connected", h)
	}
	c.mu.Lock()
	fresh := c.conn
	c.mu.Unlock()
	if fresh == corpse {
		t.Fatal("the dead generation is still installed")
	}
}

// TestWriteFailureRetiresGeneration: a write error poisons the gob stream,
// so the whole generation must be retired and the (idempotent) call retried
// on a fresh connection.
func TestWriteFailureRetiresGeneration(t *testing.T) {
	addr := startServer(t, testSite(t))
	var first *faultConn
	var mu sync.Mutex
	cfg := ClientConfig{
		Dialer: func(ctx context.Context, a string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", a)
			if err != nil {
				return nil, err
			}
			fc := &faultConn{Conn: conn}
			mu.Lock()
			if first == nil {
				first = fc
			}
			mu.Unlock()
			return fc, nil
		},
	}
	c, err := DialConfig(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mu.Lock()
	first.failWrites(errors.New("injected write fault"))
	mu.Unlock()

	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate across write fault: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
	if h := c.Health(); h.Retries < 1 || h.Redials < 1 {
		t.Fatalf("expected a retry on a fresh generation, health %+v", h)
	}
}

// TestCircuitBreakerOpensAndRecovers: failureThreshold consecutive failures
// open the circuit (calls fail fast with ErrCircuitOpen, no dial attempted),
// and after the cooldown a half-open probe reconnects and resets the failure
// tracking.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	addr := startServer(t, testSite(t))
	var refuse atomic.Bool
	var dials atomic.Int64
	cfg := ClientConfig{
		Dialer: func(ctx context.Context, a string) (net.Conn, error) {
			dials.Add(1)
			if refuse.Load() {
				return nil, errors.New("injected dial refusal")
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", a)
		},
	}
	c, err := DialConfig(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Failure 1: the live connection dies.
	c.mu.Lock()
	mc := c.conn
	c.mu.Unlock()
	mc.conn.Close()
	waitHealth(t, c, func(h SiteHealth) bool { return !h.Connected && h.ConsecutiveFailures >= 1 })

	// Failures 2–4: the call's first dial and its maxRetries redials are
	// refused — threshold reached, circuit opens.
	refuse.Store(true)
	if _, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{}); err == nil {
		t.Fatal("evaluate succeeded with dials refused")
	}
	h := c.Health()
	if h.ConsecutiveFailures != failureThreshold || !h.CircuitOpen {
		t.Fatalf("after %d failures (threshold %d): %+v", h.ConsecutiveFailures, failureThreshold, h)
	}
	if got := dials.Load(); got != 1+1+maxRetries {
		t.Fatalf("dials = %d, want the handshake plus %d refused", got, 1+maxRetries)
	}

	// While open: fail fast with the typed sentinel, no dial attempt.
	before := dials.Load()
	_, _, err = c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("circuit error not a *TransportError: %v (%T)", err, err)
	}
	if dials.Load() != before {
		t.Fatal("open circuit still dialed")
	}

	// After the cooldown the half-open probe reconnects and the breaker
	// resets.
	refuse.Store(false)
	time.Sleep(cooldown + 50*time.Millisecond)
	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
	h = c.Health()
	if h.CircuitOpen || h.ConsecutiveFailures != 0 || !h.Connected {
		t.Fatalf("health after recovery: %+v", h)
	}
}

// TestCoordinatorFailsFastOnSlowSite: one site stalls past the query
// deadline; the coordinator must return a typed *DeadlineError promptly
// instead of waiting for the stalled reply, and a later query on the same
// coordinator succeeds.
func TestCoordinatorFailsFastOnSlowSite(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 0.9); err != nil {
		t.Fatal(err)
	}
	pi, err := partition.Split(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	slow := &faultClient{
		SiteClient: &LocalClient{Site: NewSite(pi.Parts[1], 1)},
		delay:      10 * time.Second,
	}
	coord := NewCoordinator([]SiteClient{
		&LocalClient{Site: NewSite(pi.Parts[0], 1)},
		slow,
	}, Options{Workers: 1})

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	start := time.Now()
	// S and T live in different partitions, so no site decides alone and
	// the stalled reply is on the critical path.
	_, _, err = coord.Answer(ctx, control.Query{S: 0, T: 3})
	cancel()
	elapsed := time.Since(start)

	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *DeadlineError", err, err)
	}
	if elapsed > 2*budget {
		t.Fatalf("answer took %v with a %v deadline", elapsed, budget)
	}

	// The coordinator itself is unharmed: with the stall removed the same
	// query answers correctly.
	slow.delay = 0
	got, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := control.CBE(g, control.Query{S: 0, T: 3}); got != want {
		t.Fatalf("answer = %v, want %v", got, want)
	}
}
