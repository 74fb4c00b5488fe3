package ccp_test

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccp"
)

// pausableProxy sits between the coordinator and one site, forwarding bytes
// in both directions. Pause stops delivery of site->coordinator bytes
// (holding them, never dropping them — a dropped byte would corrupt the gob
// stream for good); Resume releases them. This simulates a stalled or
// black-holed site without touching the site process.
type pausableProxy struct {
	l       net.Listener
	backend string

	mu     sync.Mutex
	paused chan struct{} // non-nil while paused; closed on resume
}

func newPausableProxy(t *testing.T, backend string) *pausableProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	p := &pausableProxy{l: l, backend: backend}
	go p.run()
	return p
}

func (p *pausableProxy) addr() string { return p.l.Addr().String() }

func (p *pausableProxy) pause() {
	p.mu.Lock()
	if p.paused == nil {
		p.paused = make(chan struct{})
	}
	p.mu.Unlock()
}

func (p *pausableProxy) resume() {
	p.mu.Lock()
	if p.paused != nil {
		close(p.paused)
		p.paused = nil
	}
	p.mu.Unlock()
}

// gate blocks while the proxy is paused.
func (p *pausableProxy) gate() {
	p.mu.Lock()
	ch := p.paused
	p.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

func (p *pausableProxy) run() {
	for {
		client, err := p.l.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		// coordinator -> site flows freely; site -> coordinator is gated.
		go func() {
			io.Copy(server, client)
			server.Close()
			client.Close()
		}()
		go func() {
			buf := make([]byte, 4096)
			for {
				n, err := server.Read(buf)
				if n > 0 {
					p.gate()
					if _, werr := client.Write(buf[:n]); werr != nil {
						break
					}
				}
				if err != nil {
					break
				}
			}
			server.Close()
			client.Close()
		}()
	}
}

// chainGraph builds 0 -> 1 -> 2 -> 3 with controlling stakes, so company 0
// controls company 3 across the contiguous 2-way partition boundary.
func chainGraph(t *testing.T) *ccp.Graph {
	t.Helper()
	g := ccp.NewGraph(4)
	for v := 0; v < 3; v++ {
		if err := g.AddEdge(ccp.NodeID(v), ccp.NodeID(v+1), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// startSite serves one partition over a fresh loopback listener and returns
// its address.
func startSite(t *testing.T, p *ccp.Partition) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go ccp.ServeSite(ctx, l, p, 1)
	return l.Addr().String()
}

// TestClusterStalledSiteTypedDeadline is the PR's acceptance scenario at the
// public API: one site's responses stall mid-query. Controls with a 100ms
// deadline must return a typed *ccp.DeadlineError within 2x the deadline —
// not hang until a TCP timeout — and the same Cluster must then answer a
// healthy query correctly once the site recovers.
func TestClusterStalledSiteTypedDeadline(t *testing.T) {
	g := chainGraph(t)
	pi, err := ccp.PartitionContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	addr0 := startSite(t, pi.Parts[0])
	addr1 := startSite(t, pi.Parts[1])
	proxy := newPausableProxy(t, addr1)

	cluster, err := ccp.ConnectCluster(context.Background(), []string{addr0, proxy.addr()}, ccp.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want := ccp.Controls(g, 0, 3)

	// Healthy baseline through the proxy.
	ans, _, err := cluster.Controls(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ans != want {
		t.Fatalf("healthy answer = %v, want %v", ans, want)
	}

	// Stall site 1 and query under a 100ms deadline.
	proxy.pause()
	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	start := time.Now()
	_, _, err = cluster.Controls(ctx, 0, 3)
	cancel()
	elapsed := time.Since(start)

	var de *ccp.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *ccp.DeadlineError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v does not unwrap to context.DeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("stalled query took %v with a %v deadline, want <= %v", elapsed, budget, 2*budget)
	}

	// Site recovers: the held bytes flow again (the gob stream was paused,
	// never corrupted) and the SAME cluster answers correctly.
	proxy.resume()
	ans, _, err = cluster.Controls(context.Background(), 0, 3)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if ans != want {
		t.Fatalf("recovered answer = %v, want %v", ans, want)
	}
}

// TestSiteServerShutdownDrains: Shutdown stops the accept loop, drains the
// open connections, and Serve returns nil — the library half of ccpd's
// SIGTERM path.
func TestSiteServerShutdownDrains(t *testing.T) {
	g := chainGraph(t)
	pi, err := ccp.PartitionContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ccp.NewSiteServer(pi.Parts[0], 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	addr1 := startSite(t, pi.Parts[1])
	cluster, err := ccp.ConnectCluster(context.Background(), []string{l.Addr().String(), addr1}, ccp.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, _, err := cluster.Controls(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
	st := srv.Stats()
	if st.Requests == 0 {
		t.Fatalf("stats = %+v, expected served requests", st)
	}
	if st.ConnsDrained != st.ConnsAccepted {
		t.Fatalf("drained %d of %d conns", st.ConnsDrained, st.ConnsAccepted)
	}
}

// TestServeSiteStopsOnContextCancel: the convenience ServeSite entry point
// shuts down cleanly (nil error) when its context is cancelled.
func TestServeSiteStopsOnContextCancel(t *testing.T) {
	g := chainGraph(t)
	pi, err := ccp.PartitionContiguous(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ccp.ServeSite(ctx, l, pi.Parts[0], 1) }()

	cluster, err := ccp.ConnectCluster(context.Background(), []string{l.Addr().String()}, ccp.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.Controls(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	cluster.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeSite returned %v on cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeSite did not stop on cancel")
	}
}

// TestConnectClusterCleansUpAfterFailedDial: a connect that reaches one
// site and not the next must fail naming the dead address and close the
// connection it already made, leaving neither a client reader nor a site
// connection handler behind.
func TestConnectClusterCleansUpAfterFailedDial(t *testing.T) {
	g := ccp.GenerateRandom(40, 120, 5)
	pi, err := ccp.PartitionContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ccp.NewSiteServer(pi.Parts[0], 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		<-serveErr
	}()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	base := runtime.NumGoroutine()
	_, err = ccp.ConnectCluster(context.Background(), []string{l.Addr().String(), deadAddr}, ccp.ClusterOptions{})
	if err == nil || !strings.Contains(err.Error(), deadAddr) {
		t.Fatalf("connect with a dead site returned %v, want an error naming %s", err, deadAddr)
	}
	if n := srv.Stats().ConnsAccepted; n != 1 {
		t.Fatalf("live site accepted %d connections, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not settle: %d -> %d\n%s", base, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
