package dist

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// startTCPSite serves one partition over a loopback listener and returns a
// connected client. Listener and client are closed with the test.
func startTCPSite(t *testing.T, p *partition.Partition) *RemoteClient {
	c, stop := serveTCPSite(t, NewSite(p, 2))
	t.Cleanup(stop)
	return c
}

// serveTCPSite serves site over a loopback listener and returns a connected
// client, and a stop that closes client and listener and waits for the
// server to return.
func serveTCPSite(tb testing.TB, site *Site) (*RemoteClient, func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := Serve(context.Background(), l, site); err != nil {
			tb.Errorf("serve: %v", err)
		}
	}()
	stop := func() {
		l.Close()
		<-done
	}
	c, err := Dial(context.Background(), l.Addr().String())
	if err != nil {
		stop()
		tb.Fatal(err)
	}
	return c, func() {
		c.Close()
		stop()
	}
}

// TestRemoteClientMultiplexing fires many overlapping calls at one TCP
// connection and checks every reply is routed to its caller: answers must
// match what the same queries return serially.
func TestRemoteClientMultiplexing(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 2, NodesPerCountry: 1200, InterconnectRate: 0.01, Seed: 23}).G
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := startTCPSite(t, pi.Parts[0])

	rng := rand.New(rand.NewSource(7))
	const calls = 32
	qs := make([]control.Query, calls)
	want := make([]*PartialAnswer, calls)
	for i := range qs {
		qs[i] = control.Query{
			S: graph.NodeID(rng.Intn(g.Cap())),
			T: graph.NodeID(rng.Intn(g.Cap())),
		}
		pa, _, err := c.Evaluate(context.Background(), qs[i], EvalOptions{})
		if err != nil {
			t.Fatalf("serial %v: %v", qs[i], err)
		}
		want[i] = pa
	}

	var wg sync.WaitGroup
	got := make([]*PartialAnswer, calls)
	gotErr := make([]error, calls)
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, gotErr[i] = c.Evaluate(context.Background(), qs[i], EvalOptions{})
		}(i)
	}
	// A precompute races on the same connection; it must neither fail nor
	// steal another call's response.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.Precompute(context.Background()); err != nil {
			t.Errorf("precompute: %v", err)
		}
	}()
	wg.Wait()

	for i := range qs {
		if gotErr[i] != nil {
			t.Fatalf("concurrent %v: %v", qs[i], gotErr[i])
		}
		if got[i].Ans != want[i].Ans || got[i].SiteID != want[i].SiteID {
			t.Fatalf("%v: concurrent answer %v (site %d), serial %v (site %d)",
				qs[i], got[i].Ans, got[i].SiteID, want[i].Ans, want[i].SiteID)
		}
		if (got[i].Reduced == nil) != (want[i].Reduced == nil) {
			t.Fatalf("%v: reduced-partial presence diverged under multiplexing", qs[i])
		}
	}
}

func TestSiteErrorOverWire(t *testing.T) {
	g := gen.Random(40, 60, 3)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := startTCPSite(t, pi.Parts[0])

	// Weight 1.5 is outside (0,1] and -1 is no company: the site is
	// reachable but must reject the stake, the failure must surface as a
	// typed SiteError, and the site must keep serving.
	for _, up := range []StakeUpdate{{Owner: 0, Owned: 1, Weight: 1.5}, {Owner: 0, Owned: -1, Weight: 0.2}} {
		_, err = c.Apply(context.Background(), up.record())
		var se *SiteError
		if !errors.As(err, &se) {
			t.Fatalf("%+v: err = %v (%T), want *SiteError", up, err, err)
		}
		if se.SiteID != 0 || se.Op != "apply" {
			t.Fatalf("%+v: SiteError = %+v, want site 0 op apply", up, se)
		}
		var te *TransportError
		if errors.As(err, &te) {
			t.Fatalf("%+v: site failure classified as transport failure: %v", up, err)
		}
		// The connection survives a site error: the next call succeeds.
		if _, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{}); err != nil {
			t.Fatalf("%+v: connection dead after site error: %v", up, err)
		}
	}
}

func TestTransportErrorAfterClose(t *testing.T) {
	g := gen.Random(40, 60, 4)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := startTCPSite(t, pi.Parts[0])
	c.Close()

	_, _, err = c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TransportError", err, err)
	}
	if te.SiteID != 0 || te.Op != "evaluate" {
		t.Fatalf("TransportError = %+v, want site 0 op evaluate", te)
	}
	var se *SiteError
	if errors.As(err, &se) {
		t.Fatalf("transport failure classified as site failure: %v", err)
	}
}

func TestTransportErrorOnDial(t *testing.T) {
	// A listener that hangs up before the identity handshake: Dial must fail
	// with a TransportError carrying SiteID -1 (the site never said who it
	// was).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Close()
	}()
	_, err = Dial(context.Background(), l.Addr().String())
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TransportError", err, err)
	}
	if te.SiteID != -1 {
		t.Fatalf("TransportError site = %d, want -1 (unidentified)", te.SiteID)
	}
}

// failingClient wraps a SiteClient and fails Evaluate for one query.
type failingClient struct {
	SiteClient
	failS graph.NodeID
}

func (c *failingClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	if q.S == c.failS {
		return nil, 0, &SiteError{SiteID: c.SiteID(), Op: "evaluate", Msg: "injected"}
	}
	return c.SiteClient.Evaluate(ctx, q, opts)
}

func TestAnswerBatchQueryError(t *testing.T) {
	g := gen.Random(60, 120, 11)
	pi, err := partition.ByHash(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	clients := []SiteClient{
		&failingClient{SiteClient: &LocalClient{Site: NewSite(pi.Parts[0], 1)}, failS: 7},
		&LocalClient{Site: NewSite(pi.Parts[1], 1)},
	}
	qs := []control.Query{{S: 1, T: 2}, {S: 3, T: 4}, {S: 7, T: 9}, {S: 5, T: 6}}
	for _, conc := range []int{1, 3} {
		coord := NewCoordinator(clients, Options{Workers: 1, Concurrency: conc})
		_, _, err := coord.AnswerBatch(context.Background(), qs)
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("conc=%d: err = %v (%T), want *QueryError", conc, err, err)
		}
		if qe.Index != 2 || qe.Query != qs[2] {
			t.Fatalf("conc=%d: QueryError names query %d (%v), want 2 (%v)",
				conc, qe.Index, qe.Query, qs[2])
		}
		var se *SiteError
		if !errors.As(err, &se) || se.Msg != "injected" {
			t.Fatalf("conc=%d: underlying SiteError lost: %v", conc, err)
		}
	}
}

// batchCluster builds a fresh pre-cached 4-site cluster over the same EU
// graph, so metric comparisons start from identical state.
func batchCluster(t *testing.T, g *graph.Graph, opts Options) *Coordinator {
	t.Helper()
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		clients[i] = &LocalClient{Site: NewSite(p, 1), MeasureBytes: true}
	}
	coord := NewCoordinator(clients, opts)
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return coord
}

// clearTimes zeroes the wall-clock fields so metrics can be compared for
// bit-identical accounting.
func clearTimes(m *Metrics) *Metrics {
	c := *m
	c.SiteElapsedMax, c.SiteElapsedSum, c.CoordElapsed = 0, 0, 0
	return &c
}

func batchQueries(g *graph.Graph, n int, seed int64) []control.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]control.Query, n)
	for i := range qs {
		qs[i] = control.Query{
			S: graph.NodeID(rng.Intn(g.Cap())),
			T: graph.NodeID(rng.Intn(g.Cap())),
		}
	}
	return qs
}

// TestAnswerBatchSerialIdentical: at concurrency 1 the batch must reproduce
// the serial coordinator exactly — same answers and the same aggregate
// accounting (bytes, partial sizes, cache hits) as looping Answer by hand.
func TestAnswerBatchSerialIdentical(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 1200, InterconnectRate: 0.01, Seed: 31}).G
	opts := Options{UseCache: true, Workers: 1, Concurrency: 1}
	qs := batchQueries(g, 24, 8)

	batch := batchCluster(t, g, opts)
	got, totalGot, err := batch.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}

	manual := batchCluster(t, g, opts)
	want := make([]bool, len(qs))
	totalWant := &Metrics{DecidedBy: -1}
	for i, q := range qs {
		ans, m, err := manual.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		want[i] = ans
		totalWant.addQuery(m)
	}

	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d (%v): batch=%v serial=%v", i, qs[i], got[i], want[i])
		}
		if cbe := control.CBE(g, qs[i]); got[i] != cbe {
			t.Fatalf("query %d (%v): batch=%v centralized=%v", i, qs[i], got[i], cbe)
		}
	}
	g1, g2 := clearTimes(totalGot), clearTimes(totalWant)
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("serial batch accounting diverged:\nbatch  %+v\nmanual %+v", g1, g2)
	}
}

// TestAnswerBatchConcurrentMatches: higher concurrency changes scheduling,
// never answers.
func TestAnswerBatchConcurrentMatches(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 1200, InterconnectRate: 0.01, Seed: 31}).G
	qs := batchQueries(g, 24, 8)
	serial := batchCluster(t, g, Options{UseCache: true, Workers: 1, Concurrency: 1})
	want, _, err := serial.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{2, 4, 8} {
		coord := batchCluster(t, g, Options{UseCache: true, Workers: 1, Concurrency: conc})
		got, m, err := coord.AnswerBatch(context.Background(), qs)
		if err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("conc=%d query %d (%v): got %v, want %v", conc, i, qs[i], got[i], want[i])
			}
		}
		if m.SitesQueried != len(qs)*4 {
			t.Fatalf("conc=%d: sites queried = %d, want %d", conc, m.SitesQueried, len(qs)*4)
		}
	}
}

// TestBatchMetricsAggregation forces the full merge pipeline and checks the
// batch total carries every per-query accounting field — partial and merged
// graph sizes, coordinator cache hits — not just bytes.
func TestBatchMetricsAggregation(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 800, InterconnectRate: 0.01, Seed: 47}).G
	opts := Options{UseCache: true, ForcePartial: true, Workers: 1, Concurrency: 1}
	qs := batchQueries(g, 6, 15)

	batch := batchCluster(t, g, opts)
	_, total, err := batch.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}

	manual := batchCluster(t, g, opts)
	want := &Metrics{DecidedBy: -1}
	for _, q := range qs {
		_, m, err := manual.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		want.addQuery(m)
	}

	if total.PartialNodes == 0 || total.PartialEdges == 0 {
		t.Fatalf("partial sizes not aggregated: %+v", total)
	}
	if total.MGraphNodes == 0 {
		t.Fatalf("merged-graph sizes not aggregated: %+v", total)
	}
	if total.CoordCacheHits == 0 {
		t.Fatalf("coordinator cache hits not aggregated: %+v", total)
	}
	g1, g2 := clearTimes(total), clearTimes(want)
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("batch aggregation diverged from per-query sum:\nbatch  %+v\nmanual %+v", g1, g2)
	}
}

// TestCoordCopyReuseAndInvalidation: repeat queries over an unchanged
// cluster serve every cache-served site from the coordinator's copy, with no
// payload shipped; after a stake update at most one stale copy is served and
// answers stay correct against the centralized evaluation of the updated
// graph.
func TestCoordCopyReuseAndInvalidation(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 800, InterconnectRate: 0.01, Seed: 51})
	g := eu.G
	coord := batchCluster(t, g, Options{UseCache: true, ForcePartial: true, Workers: 1})
	mirror := g.Clone()

	q := control.Query{S: 5, T: graph.NodeID(g.Cap() - 5)}
	want := control.CBE(mirror, q)
	for i := 0; i < 3; i++ {
		got, m, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: got %v, want %v", i, got, want)
		}
		if m.MergedQueries != 1 {
			t.Fatalf("round %d: merged queries = %d, want 1", i, m.MergedQueries)
		}
		// After the first round every cache-served site revalidates.
		if i > 0 && (m.CoordCacheHits == 0 || m.CoordCacheHits != m.CacheHits) {
			t.Fatalf("round %d: revalidation shipped payloads again: %+v", i, m)
		}
	}

	// Find a stake the budget allows, apply it everywhere, and re-ask: a
	// stale copy must not leak into the answer.
	up := StakeUpdate{Owner: 2, Owned: graph.NodeID(g.Cap() / 2), Weight: 0.05}
	for mirror.InSum(up.Owned) > 0.9 || mirror.HasEdge(up.Owner, up.Owned) || !mirror.Alive(up.Owned) {
		up.Owned++
	}
	if err := mirror.MergeEdge(up.Owner, up.Owned, up.Weight); err != nil {
		t.Fatal(err)
	}
	if err := coord.ApplyUpdate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	got, m, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := control.CBE(mirror, q); got != want {
		t.Fatalf("after update: got %v, want %v", got, want)
	}
	// Only the one untouched non-endpoint site may revalidate; the owned
	// company's site moved its epoch and must ship a fresh payload.
	if m.CoordCacheHits > 1 {
		t.Fatalf("after update: served %d stale coordinator copies", m.CoordCacheHits)
	}
	// The next round revalidates the copies the update round stored.
	if _, m, err = coord.Answer(context.Background(), q); err != nil || m.CoordCacheHits != m.CacheHits {
		t.Fatalf("after update round 2: m=%+v err=%v", m, err)
	}
}
