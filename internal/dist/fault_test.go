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
// lifecycle: per-call deadlines, one attempt per call with a typed
// TransportError when the connection breaks, and redial on the next call.
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

// waitDisconnected waits until the client has retired its connection
// generation (readLoop teardown is asynchronous after a conn dies).
func waitDisconnected(t *testing.T, c *RemoteClient) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		down := c.conn == nil
		c.mu.Unlock()
		if down {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the dead connection was never retired")
		}
		time.Sleep(time.Millisecond)
	}
}

// redialed reports the client's redial count and whether a connection is up.
func redialed(c *RemoteClient) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials, c.conn != nil
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
	waitDisconnected(t, c)

	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate after conn death: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
	if redials, up := redialed(c); redials != 1 || !up {
		t.Fatalf("after recovery: redials = %d, connected = %v; want 1, true", redials, up)
	}
}

// TestConnLossFailsOnceThenRedials: the connection dies while a call is in
// flight, so its outcome is unknown. Every op — the reads as much as the
// write — surfaces that as a *TransportError after one attempt, never as a
// silent resend. The client is not sticky: the next call redials and
// succeeds.
func TestConnLossFailsOnceThenRedials(t *testing.T) {
	for _, tc := range []struct {
		op   string
		call func(*RemoteClient) error
	}{
		{"evaluate", func(c *RemoteClient) error {
			_, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
			return err
		}},
		{"precompute", func(c *RemoteClient) error {
			return c.Precompute(context.Background())
		}},
		{"apply", func(c *RemoteClient) error {
			_, err := c.Apply(context.Background(), StakeUpdate{Owner: 0, Owned: 1, Weight: 0.4}.record())
			return err
		}},
	} {
		t.Run(tc.op, func(t *testing.T) {
			addr := startServer(t, testSite(t))
			var dials atomic.Int64
			hangUp := scriptedSite(0, func(req *request) (*response, bool) {
				return nil, true // close without answering: outcome unknown
			})
			cfg := ClientConfig{
				Dialer: func(ctx context.Context, a string) (net.Conn, error) {
					if dials.Add(1) == 1 {
						cli, srv := net.Pipe()
						go hangUp(srv)
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

			err = tc.call(c)
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v (%T), want *TransportError", err, err)
			}
			if te.Op != tc.op {
				t.Fatalf("TransportError.Op = %q, want %q", te.Op, tc.op)
			}
			if got := dials.Load(); got != 1 {
				t.Fatalf("dials = %d during the failed call, want 1 (no resend)", got)
			}

			waitDisconnected(t, c)
			if err := tc.call(c); err != nil {
				t.Fatalf("%s after conn loss: %v", tc.op, err)
			}
			if got := dials.Load(); got != 2 {
				t.Fatalf("dials = %d after the next call, want 2", got)
			}
			if redials, up := redialed(c); redials != 1 || !up {
				t.Fatalf("redials = %d, connected = %v; want 1, true", redials, up)
			}
		})
	}
}

// TestDeadGenerationStillInstalledIsRetired pins an interleaving that once
// failed one -race run in a few hundred: a generation's reader marks it
// failed a moment before it retires it, so a call can be handed a corpse
// that is still installed. Nothing of that call was sent, so it must retire
// the corpse and go out on a fresh connection instead of failing.
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
	if redials, up := redialed(c); redials != 1 || !up {
		t.Fatalf("redials = %d, connected = %v; want 1, true", redials, up)
	}
	c.mu.Lock()
	fresh := c.conn
	c.mu.Unlock()
	if fresh == corpse {
		t.Fatal("the dead generation is still installed")
	}
}

// TestWriteFailureRetiresGeneration: a write error poisons the gob stream,
// so the call fails with a *TransportError, the whole generation is retired,
// and the next call goes out on a fresh connection.
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

	_, _, err = c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TransportError", err, err)
	}
	if redials, up := redialed(c); redials != 0 || up {
		t.Fatalf("after the write fault: redials = %d, connected = %v; want 0, false", redials, up)
	}

	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate after the write fault: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
	if redials, up := redialed(c); redials != 1 || !up {
		t.Fatalf("redials = %d, connected = %v; want 1, true", redials, up)
	}
}

// pauseConn wraps a net.Conn and, once armed, holds the next Write until
// released, telling the test when that write has started.
type pauseConn struct {
	net.Conn
	armed    atomic.Bool
	inWrite  chan struct{}
	released chan struct{}
}

func (p *pauseConn) Write(b []byte) (int, error) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.inWrite)
		<-p.released
	}
	return p.Conn.Write(b)
}

// TestWriteDeadlineIsPerCall: the write deadline belongs to the connection,
// which every in-flight call shares. An apply with no deadline is held
// inside its write while an evaluate with a 30ms deadline queues behind it.
// The evaluate's deadline must not cut the apply's write short — that would
// fail the apply and retire the generation under every other call — and the
// evaluate, expired by the time the writer is free, must send nothing and
// return its *DeadlineError.
func TestWriteDeadlineIsPerCall(t *testing.T) {
	addr := startServer(t, testSite(t))
	pc := &pauseConn{inWrite: make(chan struct{}), released: make(chan struct{})}
	cfg := ClientConfig{
		Dialer: func(ctx context.Context, a string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", a)
			pc.Conn = conn
			return pc, err
		},
	}
	c, err := DialConfig(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pc.armed.Store(true)
	applied := make(chan error, 1)
	go func() {
		_, err := c.Apply(context.Background(), StakeUpdate{Owner: 0, Owned: 1, Weight: 0.4}.record())
		applied <- err
	}()
	<-pc.inWrite

	const budget = 30 * time.Millisecond
	evaluated := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		_, _, err := c.Evaluate(ctx, control.Query{S: 0, T: 1}, EvalOptions{})
		evaluated <- err
	}()
	time.Sleep(2 * budget) // the evaluate's deadline passes while it waits
	close(pc.released)

	if err := <-applied; err != nil {
		t.Fatalf("apply failed by another call's write deadline: %v", err)
	}
	var de *DeadlineError
	if err := <-evaluated; !errors.As(err, &de) {
		t.Fatalf("evaluate err = %v (%T), want *DeadlineError", err, err)
	}
	if redials, up := redialed(c); redials != 0 || !up {
		t.Fatalf("redials = %d, connected = %v; want the first generation still up", redials, up)
	}
	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate on the same generation: %v", err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
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
