package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

func testSite(t *testing.T) *Site {
	t.Helper()
	g := graph.New(4)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	pi, err := partition.ByHash(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewSite(pi.Parts[0], 1)
}

func startServer(t *testing.T, site *Site) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(context.Background(), l, site)
	return l.Addr().String()
}

// TestServeUnknownOp sends ops the site does not serve — one never used and
// the retired 5 and 6 — each of which must get an "unknown op" error while
// the connection keeps serving.
func TestServeUnknownOp(t *testing.T) {
	addr := startServer(t, testSite(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	for _, o := range []op{99, 5, 6} {
		if err := enc.Encode(&request{Op: o}); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err == "" || !strings.Contains(resp.Err, "unknown op") {
			t.Fatalf("op %d: resp = %+v", o, resp)
		}
		// The connection stays usable after a bad request. (Fresh struct:
		// gob does not reset zero-valued fields on decode.)
		if err := enc.Encode(&request{Op: opInfo}); err != nil {
			t.Fatal(err)
		}
		var resp2 response
		if err := dec.Decode(&resp2); err != nil {
			t.Fatal(err)
		}
		if resp2.Err != "" {
			t.Fatalf("info after op %d: %+v", o, resp2)
		}
	}
}

func TestServeSurvivesGarbage(t *testing.T) {
	addr := startServer(t, testSite(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage bytes: gob reads them as a bogus length prefix; the server
	// goroutine must not crash the listener. Close and move on.
	if _, err := conn.Write([]byte("this is not gob at all, not even close")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The server still accepts and serves well-formed clients.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(context.Background(), addr)
		if err == nil {
			defer c.Close()
			if c.SiteID() != 0 {
				t.Fatalf("site id = %d", c.SiteID())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unreachable after garbage: %v", err)
		}
	}
}

func TestRemoteSiteErrorPropagates(t *testing.T) {
	addr := startServer(t, testSite(t))
	c, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A self stake is rejected at the site; the error must travel back.
	if _, err := c.Apply(context.Background(), StakeUpdate{Owner: 0, Owned: 0, Weight: 0.2}.record()); err == nil {
		t.Fatal("remote site error lost")
	}
	// The client survives and can still evaluate.
	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(context.Background(), "127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port succeeded")
	}
}

func TestClientAfterServerGone(t *testing.T) {
	site := testSite(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(context.Background(), l, site)
	c, err := Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	// Kill the live connection. The client redials rather than going
	// sticky, but with the listener gone every redial is refused, so the
	// call must fail with a transport error instead of hanging. (Recovery
	// after redial against a live server is covered in fault_test.go.)
	c.mu.Lock()
	mc := c.conn
	c.mu.Unlock()
	if mc == nil {
		t.Fatal("no live connection after dial")
	}
	mc.conn.Close()
	if _, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{}); err == nil {
		t.Fatal("evaluate with the server gone succeeded")
	}
}

func TestLocalClientWithoutByteMeasuring(t *testing.T) {
	site := testSite(t)
	lc := &LocalClient{Site: site} // MeasureBytes off
	pa, n, err := lc.Evaluate(context.Background(), control.Query{S: 2, T: 3}, EvalOptions{ForcePartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("bytes = %d without measuring", n)
	}
	if pa.Reduced == nil {
		t.Fatal("forced partial missing")
	}
	if lc.SiteID() != 0 {
		t.Fatalf("site id = %d", lc.SiteID())
	}
}

// writeCountingClient is a LocalClient that also sizes every partial the
// slow way — a full WriteBinary pass — and totals the result.
type writeCountingClient struct {
	*LocalClient
	mu      sync.Mutex
	written int64
}

func (c *writeCountingClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	pa, n, err := c.LocalClient.Evaluate(ctx, q, opts)
	if err == nil && pa.Reduced != nil {
		var buf bytes.Buffer
		if werr := pa.Reduced.WriteBinary(&buf); werr != nil {
			return nil, 0, werr
		}
		c.mu.Lock()
		c.written += int64(buf.Len())
		c.mu.Unlock()
	}
	return pa, n, err
}

// TestLocalClientBytesEqualSerializedSize pins Metrics.Bytes of an
// in-process cross-site query — the figure behind the network-traffic table
// — to what serializing every shipped partial actually writes, live and
// cached partials alike.
func TestLocalClientBytesEqualSerializedSize(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 500, InterconnectRate: 0.02, Seed: 31}).G
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	counting := make([]*writeCountingClient, len(pi.Parts))
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		counting[i] = &writeCountingClient{LocalClient: &LocalClient{Site: NewSite(p, 2), MeasureBytes: true}}
		clients[i] = counting[i]
	}
	coord := NewCoordinator(clients, Options{UseCache: true, ForcePartial: true, Workers: 2})
	// s in the first country, t in the last: two live partials, two cached.
	q := control.Query{S: 7, T: graph.NodeID(g.Cap() - 7)}
	_, m, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, c := range counting {
		written += c.written
	}
	if m.CacheHits == 0 {
		t.Fatalf("no cached partial in the mix: %+v", m)
	}
	if m.Bytes == 0 || m.Bytes != written {
		t.Fatalf("Metrics.Bytes = %d, WriteBinary wrote %d over %d partials (cache hits %d)",
			m.Bytes, written, len(counting), m.CacheHits)
	}
}
