package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// updateCluster builds a 2-partition in-process cluster over a small graph
// and returns the coordinator plus a mirror graph that tracks the expected
// centralized state.
func updateCluster(t *testing.T, useCache bool) (*Coordinator, []*Site, *graph.Graph) {
	t.Helper()
	g := graph.New(6)
	for _, e := range []graph.Edge{
		{From: 0, To: 1, Weight: 0.6},
		{From: 3, To: 4, Weight: 0.6},
	} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := partition.Split(g, []int{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*Site, 2)
	clients := make([]SiteClient, 2)
	for i, p := range pi.Parts {
		sites[i] = NewSite(p, 1)
		clients[i] = &LocalClient{Site: sites[i]}
	}
	return NewCoordinator(clients, Options{UseCache: useCache, Workers: 1}), sites, g
}

func TestApplyUpdateInternalEdge(t *testing.T) {
	coord, _, mirror := updateCluster(t, false)
	// 1 takes 70% of 2 (same partition): 0 now controls 2 transitively.
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 1, Owned: 2, Weight: 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.AddEdge(1, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	for _, q := range []control.Query{{S: 0, T: 2}, {S: 1, T: 2}, {S: 0, T: 4}} {
		want := control.CBE(mirror, q)
		got, _, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v after update: got %v, want %v", q, got, want)
		}
	}
}

func TestApplyUpdateCrossEdgeAndRemove(t *testing.T) {
	coord, sites, mirror := updateCluster(t, true)
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 1 (partition 0) takes 80% of 3 (partition 1): a cross edge. Node 3
	// must become an in-node of partition 1, and 0 now controls 4.
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 1, Owned: 3, Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.AddEdge(1, 3, 0.8); err != nil {
		t.Fatal(err)
	}
	if !sites[1].part.InNodes.Has(3) || !sites[1].part.CrossIn[3].Has(1) {
		t.Fatal("in-node bookkeeping not updated")
	}
	if !sites[0].part.Virtual.Has(3) {
		t.Fatal("owner-side cross bookkeeping not updated")
	}
	for _, q := range []control.Query{{S: 0, T: 4}, {S: 1, T: 4}, {S: 0, T: 3}} {
		want := control.CBE(mirror, q)
		got, _, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v after cross update: got %v, want %v", q, got, want)
		}
	}
	// Divest: everything reverts.
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 1, Owned: 3, Remove: true}); err != nil {
		t.Fatal(err)
	}
	mirror.RemoveEdge(1, 3)
	if sites[1].part.InNodes.Has(3) || len(sites[1].part.CrossIn) != 0 {
		t.Fatal("in-node not dropped after divestment")
	}
	if sites[0].part.Local.HasEdge(1, 3) {
		t.Fatal("edge kept after divestment")
	}
	got, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != control.CBE(mirror, control.Query{S: 0, T: 4}) {
		t.Fatal("answer did not revert after divestment")
	}
}

func TestApplyUpdateMergeDoesNotDoubleCountInNode(t *testing.T) {
	coord, sites, _ := updateCluster(t, false)
	// Two increments of the same cross stake: the owned company's home
	// records its owner once, and the second leaves its epoch alone.
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 1, Owned: 3, Weight: 0.2}); err != nil {
		t.Fatal(err)
	}
	epoch := sites[1].Epoch()
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 1, Owned: 3, Weight: 0.2}); err != nil {
		t.Fatal(err)
	}
	if owners := sites[1].part.CrossIn[3]; len(owners) != 1 || !owners.Has(1) || sites[1].Epoch() != epoch {
		t.Fatalf("owners of 3 = %v, epoch %d -> %d", owners, epoch, sites[1].Epoch())
	}
	// One divestment clears it.
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 1, Owned: 3, Remove: true}); err != nil {
		t.Fatal(err)
	}
	if sites[1].part.InNodes.Has(3) {
		t.Fatal("in-node survived divestment")
	}
}

func TestApplyUpdateErrors(t *testing.T) {
	coord, _, _ := updateCluster(t, false)
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 99, Owned: 1, Weight: 0.2}); err == nil {
		t.Fatal("unknown owner accepted")
	}
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 0, Owned: 1, Remove: true, Weight: 0}); err != nil {
		t.Fatal(err) // removing an existing stake is fine
	}
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 0, Owned: 1, Remove: true}); err == nil {
		t.Fatal("removing a missing stake accepted")
	}
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 0, Owned: 2, Weight: 1.5}); err == nil {
		t.Fatal("out-of-range stake accepted")
	}
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 0, Owned: 0, Weight: 0.2}); err == nil {
		t.Fatal("self stake accepted")
	}
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 0, Owned: -1, Weight: 0.2}); err == nil {
		t.Fatal("negative company id accepted")
	}
}

// applyCounter counts the Apply calls that reach its client.
type applyCounter struct {
	SiteClient
	calls atomic.Int64
}

func (c *applyCounter) Apply(ctx context.Context, rec store.Record) (UpdateResult, error) {
	c.calls.Add(1)
	return c.SiteClient.Apply(ctx, rec)
}

// claimant lists one more company than its site stores.
type claimant struct {
	SiteClient
	extra graph.NodeID
}

func (c claimant) Members() []graph.NodeID { return append(c.SiteClient.Members(), c.extra) }

// TestApplyUpdateRoutesToHomeSites counts the Apply calls each site of a
// three-site cluster receives: a domestic stake reaches its owner's site
// only, every cross stake both home sites, and an update naming a company
// no site stores reaches no site at all. A site whose directory entry
// claims a company it does not store fails the update.
func TestApplyUpdateRoutesToHomeSites(t *testing.T) {
	g := graph.New(9)
	pi, err := partition.Split(g, []int{0, 0, 0, 1, 1, 1, 2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*applyCounter, 3)
	clients := make([]SiteClient, 3)
	for i, p := range pi.Parts {
		counters[i] = &applyCounter{SiteClient: &LocalClient{Site: NewSite(p, 1)}}
		clients[i] = counters[i]
	}
	clients[0] = claimant{SiteClient: counters[0], extra: 50}
	coord := NewCoordinator(clients, Options{Workers: 1})
	for _, tc := range []struct {
		name  string
		up    StakeUpdate
		calls [3]int
		fails bool
	}{
		{"domestic", StakeUpdate{Owner: 0, Owned: 2, Weight: 0.2}, [3]int{1, 0, 0}, false},
		{"cross", StakeUpdate{Owner: 0, Owned: 4, Weight: 0.2}, [3]int{1, 1, 0}, false},
		{"cross merge", StakeUpdate{Owner: 0, Owned: 4, Weight: 0.1}, [3]int{1, 1, 0}, false},
		{"cross removal", StakeUpdate{Owner: 0, Owned: 4, Remove: true}, [3]int{1, 1, 0}, false},
		{"missing stake", StakeUpdate{Owner: 7, Owned: 4, Remove: true}, [3]int{0, 1, 1}, true},
		{"unknown owner", StakeUpdate{Owner: 99, Owned: 4, Weight: 0.2}, [3]int{}, true},
		{"unknown owned", StakeUpdate{Owner: 4, Owned: 99, Weight: 0.2}, [3]int{}, true},
		{"negative owned", StakeUpdate{Owner: 4, Owned: -1, Weight: 0.2}, [3]int{}, true},
		{"misdirected", StakeUpdate{Owner: 50, Owned: 4, Weight: 0.2}, [3]int{1, 1, 0}, true},
	} {
		for _, c := range counters {
			c.calls.Store(0)
		}
		err := coord.ApplyUpdate(context.Background(), tc.up)
		if (err != nil) != tc.fails {
			t.Fatalf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
		}
		got := [3]int{}
		for i, c := range counters {
			got[i] = int(c.calls.Load())
		}
		if got != tc.calls {
			t.Fatalf("%s: Apply calls per site %v, want %v", tc.name, got, tc.calls)
		}
	}
}

func TestUpdatesOverTCP(t *testing.T) {
	g := gen.EU(gen.EUConfig{Countries: 2, NodesPerCountry: 500, InterconnectRate: 0, Seed: 5}).G
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, 2)
	for i, p := range pi.Parts {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		site := NewSite(p, 1)
		go Serve(context.Background(), l, site)
		c, err := Dial(context.Background(), l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The directory entry comes from the dial handshake.
		if got, want := c.Members(), site.MemberIDs(); !slices.Equal(got, want) || len(got) == 0 {
			t.Fatalf("site %d: handshake listed %d members, site stores %d", i, len(got), len(want))
		}
		clients[i] = c
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	mirror := g.Clone()

	// Find an uncontrolled company in country 1 and take it over from
	// country 0, across the wire.
	var target graph.NodeID = graph.None
	for v := graph.NodeID(500); v < 1000; v++ {
		if mirror.InSum(v) < 0.3 {
			target = v
			break
		}
	}
	if target == graph.None {
		t.Skip("no takeover candidate")
	}
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: 7, Owned: target, Weight: 0.65}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.AddEdge(7, target, 0.65); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 6; i++ {
		q := control.Query{S: 7, T: target}
		if i > 0 {
			q = control.Query{S: graph.NodeID(rng.Intn(1000)), T: graph.NodeID(rng.Intn(1000))}
		}
		want := control.CBE(mirror, q)
		got, _, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v over TCP after update: got %v want %v", q, got, want)
		}
	}
}

func TestAnswerBatch(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 2000, AvgOutDegree: 2, Seed: 31})
	pi, err := partition.ByContiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, 3)
	for i, p := range pi.Parts {
		clients[i] = &LocalClient{Site: NewSite(p, 1), MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var qs []control.Query
	var want []bool
	for i := 0; i < 20; i++ {
		q := control.Query{S: graph.NodeID(rng.Intn(2000)), T: graph.NodeID(rng.Intn(2000))}
		qs = append(qs, q)
		want = append(want, control.CBE(g, q))
	}
	got, m, err := coord.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch query %d: got %v want %v", i, got[i], want[i])
		}
	}
	if m.SitesQueried != 20*3 {
		t.Fatalf("sites queried = %d", m.SitesQueried)
	}
}

func TestCoordinatorCacheRevalidation(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 3000, AvgOutDegree: 2, Seed: 45})
	pi, err := partition.ByContiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*Site, 3)
	clients := make([]SiteClient, 3)
	for i, p := range pi.Parts {
		sites[i] = NewSite(p, 1)
		clients[i] = &LocalClient{Site: sites[i], MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Endpoints in partitions 0 and 2: site 1 serves from cache.
	q := control.Query{S: 5, T: graph.NodeID(g.Cap() - 5)}
	want := control.CBE(g, q)

	got1, m1, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != want {
		t.Fatalf("first answer %v, want %v", got1, want)
	}
	if m1.CacheHits != 1 || m1.CoordCacheHits != 0 {
		t.Fatalf("first query: cacheHits=%d coordHits=%d", m1.CacheHits, m1.CoordCacheHits)
	}

	// Second query: the coordinator revalidates by epoch; site 1 replies
	// not-modified and ships nothing.
	got2, m2, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want || m2.CoordCacheHits != 1 {
		t.Fatalf("second query: got=%v coordHits=%d", got2, m2.CoordCacheHits)
	}
	if m2.Bytes >= m1.Bytes {
		t.Fatalf("revalidated query shipped %dB, first shipped %dB", m2.Bytes, m1.Bytes)
	}

	// An update to site 1 bumps its epoch: the copy is refetched and
	// answers stay correct.
	mid := graph.NodeID(1000 + 1) // a member of partition 1
	if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: mid, Owned: mid + 1, Weight: 0.05}); err != nil {
		t.Fatal(err)
	}
	got3, m3, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got3 != control.CBE(pi.Merge(), q) {
		t.Fatalf("post-update answer wrong")
	}
	if m3.CoordCacheHits != 0 {
		t.Fatalf("stale coordinator copy served after update: %+v", m3)
	}
	// And the fourth query revalidates again.
	_, m4, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m4.CoordCacheHits != 1 {
		t.Fatalf("revalidation broken after refetch: %+v", m4)
	}
}

// racedCluster builds a 2-site in-process cluster in which controls(1, 3)
// holds only through site 0 (1 → 0 → 3, both stakes 0.6), site 0 also
// holding a few hundred unrelated companies, and starts a goroutine that
// streams stakes among those companies into site 0 until the returned stop
// is called. Every stake moves site 0's epoch and none changes the answer.
// The writer is running when racedCluster returns; racing reports whether
// it has applied at least n updates, so a test can keep reading until its
// reads really overlapped writes.
func racedCluster(t *testing.T) (coord *Coordinator, site0 *Site, racing func(n int64) bool, stop func()) {
	t.Helper()
	const filler = 300
	g := graph.New(4 + 2*filler)
	g.AddEdge(1, 0, 0.6)
	g.AddEdge(0, 3, 0.6)
	rng := rand.New(rand.NewSource(5))
	even := func() graph.NodeID { return graph.NodeID(4 + 2*rng.Intn(filler)) }
	for i := 0; i < 2*filler; i++ {
		if u, v := even(), even(); u != v {
			g.MergeEdge(u, v, 0.05+0.1*rng.Float64())
		}
	}
	pi, err := partition.ByHash(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{NewSite(pi.Parts[0], 1), NewSite(pi.Parts[1], 1)}
	clients := []SiteClient{&LocalClient{Site: sites[0]}, &LocalClient{Site: sites[1]}}
	coord = NewCoordinator(clients, Options{UseCache: true, Workers: 1})

	// The writer takes a small stake and divests it again, so the partition
	// never grows.
	var applied atomic.Int64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			u, v := even(), even()
			if u == v {
				continue
			}
			for _, remove := range []bool{false, true} {
				if _, err := sites[0].ApplyEdgeUpdate(StakeUpdate{Owner: u, Owned: v, Weight: 0.01, Remove: remove}); err != nil {
					t.Error(err)
					return
				}
				applied.Add(1)
			}
		}
	}()
	racing = func(n int64) bool { return applied.Load() >= n }
	for !racing(2) {
		runtime.Gosched()
	}
	return coord, sites[0], racing, func() { close(quit); <-done }
}

// TestCachedEvaluateRacingUpdatesShipsGraph is the site half of the
// regression test for a cached evaluation racing an update: a build whose
// epoch moved before it could be installed as the cache must still be
// served, at the epoch it was built for, instead of an undecided partial
// with no graph.
func TestCachedEvaluateRacingUpdatesShipsGraph(t *testing.T) {
	_, site, racing, stop := racedCluster(t)
	defer stop()
	q := control.Query{S: 1, T: 3} // neither endpoint at site 0
	for i := 0; i < 1000 || !racing(20000); i++ {
		pa, err := site.Evaluate(context.Background(), q, EvalOptions{UseCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if pa.Ans == control.Unknown && !pa.NotModified && pa.Reduced == nil {
			t.Fatalf("call %d: undecided cached partial at epoch %d has no graph", i, pa.Epoch)
		}
	}
}

// TestCoordinatorAnswersRacingUpdates is the coordinator half: with
// unrelated updates streaming into site 0, whose partial carries the only
// path from 1 to 3, every answer to controls(1, 3) must be true. Dropping
// that partial from the merge used to answer false.
func TestCoordinatorAnswersRacingUpdates(t *testing.T) {
	coord, _, racing, stop := racedCluster(t)
	defer stop()
	q := control.Query{S: 1, T: 3}
	for i := 0; i < 1000 || !racing(1000); i++ {
		got, _, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !got {
			t.Fatalf("query %d: controls(1,3) answered false", i)
		}
	}
}

// checkedClient hands every reply of its site to check before the
// coordinator consumes it, on the inline path too.
type checkedClient struct {
	*LocalClient
	check func(*Site, *PartialAnswer)
}

func (c *checkedClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	pa, n, err := c.LocalClient.Evaluate(ctx, q, opts)
	if err == nil {
		c.check(c.Site, pa)
	}
	return pa, n, err
}

func (c *checkedClient) evaluateInline(q control.Query, opts EvalOptions) (*PartialAnswer, int64, error, bool) {
	pa, n, err, ok := c.LocalClient.evaluateInline(q, opts)
	if ok && err == nil {
		c.check(c.Site, pa)
	}
	return pa, n, err, ok
}

// TestCachedFetchesRacingUpdates races cached fetches against updates. Two
// coordinators over the same two sites answer random queries, and a third
// reader calls Site.Evaluate directly with no IfEpoch, while a writer
// streams stakes through the first coordinator. Every cached reply is its
// receiver's own copy in the site's scratch pool, released once consumed,
// so a copy handed to two receivers, or reused while one still reads it,
// shows up as a reply that is not the reduction of its site's core at the
// reply's epoch.
func TestCachedFetchesRacingUpdates(t *testing.T) {
	const nodes = 16
	sites := make([]*Site, 2)
	for i := range sites {
		p, err := durableSeed(11, nodes, i)() // site i stores the ids ≡ i mod 2
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = NewSite(p, 1)
	}
	// mu is held across each update and the recording of both sites'
	// cores, so a reader that saw an epoch finds its core recorded.
	var mu sync.Mutex
	cores := []map[uint64]*graph.Graph{{}, {}}
	record := func() {
		for i, s := range sites {
			p := s.part.Snapshot()
			_, g, err := reduceAt(p, control.Query{S: graph.None, T: graph.None},
				refSlice(p, graph.None, graph.None), control.Options{DisableTermination: true})
			if err != nil {
				t.Error(err)
			}
			cores[i][s.Epoch()] = g
		}
	}
	record()

	// Each reader counts the fresh cached replies it checked; the writer
	// streams until every reader has checked enough.
	const wantChecks = 50
	var checks [3]atomic.Int64
	var failed atomic.Bool
	checker := func(r int) func(*Site, *PartialAnswer) {
		return func(s *Site, pa *PartialAnswer) {
			if !pa.FromCache || pa.NotModified {
				return
			}
			mu.Lock()
			want, ok := cores[s.ID()][pa.Epoch]
			mu.Unlock()
			if !ok || !graph.Equal(want, pa.Reduced, 1e-9) {
				t.Errorf("reader %d: site %d's cached reply at epoch %d (recorded %v) is not its core's reduction",
					r, s.ID(), pa.Epoch, ok)
				failed.Store(true)
			}
			checks[r].Add(1)
		}
	}
	coords := make([]*Coordinator, 2)
	for r := range coords {
		clients := make([]SiteClient, len(sites))
		for i, s := range sites {
			clients[i] = &checkedClient{&LocalClient{Site: s}, checker(r)}
		}
		coords[r] = NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	}
	direct := checker(2)
	enough := func() bool {
		for i := range checks {
			if checks[i].Load() < wantChecks {
				return false
			}
		}
		return true
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(99))
		for i := 0; !enough() && !failed.Load() && i < 100000; i++ {
			up := randomStake(rng, nodes, rng.Intn(2))
			// The coordinator refuses to divest a stake that does not exist.
			// Only this goroutine writes, so the owner's partition reads
			// safely here.
			if up.Remove && !sites[up.Owner%2].part.Local.HasEdge(up.Owner, up.Owned) {
				up.Remove = false
			}
			mu.Lock()
			err := coords[0].ApplyUpdate(context.Background(), up)
			record()
			mu.Unlock()
			if err != nil {
				t.Errorf("update %+v: %v", up, err)
				failed.Store(true)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	read := func(r int, step func(*rand.Rand) error) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(r)))
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := step(rng); err != nil {
				t.Errorf("reader %d: %v", r, err)
				failed.Store(true)
				return
			}
		}
	}
	for r, c := range coords {
		wg.Add(1)
		go read(r, func(rng *rand.Rand) error {
			q := control.Query{S: graph.NodeID(rng.Intn(nodes)), T: graph.NodeID(rng.Intn(nodes))}
			if q.S == q.T {
				return nil
			}
			_, _, err := c.Answer(context.Background(), q)
			return err
		})
	}
	wg.Add(1)
	go read(2, func(rng *rand.Rand) error {
		// Two companies of the other site: this site serves its cache.
		i := rng.Intn(2)
		q := control.Query{S: graph.NodeID(2*rng.Intn(nodes/2) + 1 - i), T: graph.NodeID(2*rng.Intn(nodes/2) + 1 - i)}
		pa, err := sites[i].Evaluate(context.Background(), q, EvalOptions{UseCache: true})
		if err != nil {
			return err
		}
		if !pa.FromCache || pa.NotModified || pa.Reduced == nil {
			return fmt.Errorf("site %d: %v: not a cached copy: %+v", i, q, pa)
		}
		direct(sites[i], pa)
		pa.Release()
		return nil
	})
	<-done
	wg.Wait()
	if !failed.Load() && !enough() {
		t.Fatalf("the writer gave up with %d, %d and %d checked replies, want %d each",
			checks[0].Load(), checks[1].Load(), checks[2].Load(), wantChecks)
	}
}

// boundaryGraph is the graph of the boundary-move tests: sites A = {0..3}
// and B = {4..7}, with 0 → 3 and 1 → 2 at A and 6 → 7 at B, all 0.6, and no
// cross edge yet.
func boundaryGraph(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	g := graph.New(8)
	for _, e := range []graph.Edge{{From: 0, To: 3, Weight: 0.6}, {From: 1, To: 2, Weight: 0.6},
		{From: 6, To: 7, Weight: 0.6}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return g, []int{0, 0, 0, 0, 1, 1, 1, 1}
}

// TestSliceFollowsBoundaryUpdates moves site A's boundary between queries
// whose answers depend on it, and requires every answer to equal CBE and
// every live reply to reduce the slice of the partition as it stands: a
// slice cut with reachability sets the update did not repair would answer
// controls(4, 2) false after 4 → 1 makes 1 an in-node, and controls(0, 7)
// false after 3 → 6 makes 6 virtual. Every step moves A's epoch, a second
// foreign owner of in-node 1 too: it changes A's owner set, if not its
// in-nodes.
func TestSliceFollowsBoundaryUpdates(t *testing.T) {
	for _, opts := range []Options{{}, {UseCache: true}} {
		g, assign := boundaryGraph(t)
		c := newDiffCluster(t, g, assign, 2, opts, false, checkSlice)
		siteA := c.coord.clients[0].(*recordingClient).site
		queries := []control.Query{{S: 4, T: 2}, {S: 5, T: 2}, {S: 0, T: 7}, {S: 0, T: 6}}
		ask := func(step string) {
			for _, q := range queries {
				c.check(t, fmt.Sprintf("%+v %s", opts, step), q)
			}
		}
		ask("before")
		for _, step := range []struct {
			name string
			up   StakeUpdate
		}{
			{"4→1 makes 1 an in-node", StakeUpdate{Owner: 4, Owned: 1, Weight: 0.6}},
			{"5→1 adds a second owner of 1", StakeUpdate{Owner: 5, Owned: 1, Weight: 0.1}},
			{"5→1 removed takes it away", StakeUpdate{Owner: 5, Owned: 1, Remove: true}},
			{"4→1 removed drops the last cross edge into 1", StakeUpdate{Owner: 4, Owned: 1, Remove: true}},
			{"3→6 makes 6 virtual", StakeUpdate{Owner: 3, Owned: 6, Weight: 0.6}},
		} {
			epoch := siteA.Epoch()
			c.update(t, step.up)
			if siteA.Epoch() == epoch {
				t.Fatalf("%+v %s: site A's epoch stayed at %d", opts, step.name, epoch)
			}
			ask(step.name)
		}
		if !control.CBE(c.g, control.Query{S: 0, T: 7}) {
			t.Fatal("the last step should have made 0 control 7")
		}
		c.stop()
	}
}

// TestSliceRacingBoundaryUpdates streams boundary moves at site A — an
// in-node appearing and disappearing, a second owner of another, a new
// virtual node — against live evaluations at A, from the coordinator and
// from a second reader, and requires controls(4, 2), through in-node 1,
// and controls(0, 7), through virtual node 6, to hold throughout. A reader
// that cut its slice from sets Apply was repairing would lose the path and
// answer false.
func TestSliceRacingBoundaryUpdates(t *testing.T) {
	g, assign := boundaryGraph(t)
	for _, e := range []graph.Edge{{From: 4, To: 1, Weight: 0.6}, {From: 3, To: 6, Weight: 0.6}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := partition.Split(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{NewSite(pi.Parts[0], 1), NewSite(pi.Parts[1], 1)}
	coord := NewCoordinator([]SiteClient{&LocalClient{Site: sites[0]}, &LocalClient{Site: sites[1]}},
		Options{UseCache: true, Workers: 1})
	ctx := context.Background()
	cycle := []StakeUpdate{
		{Owner: 5, Owned: 0, Weight: 0.05}, // 0 becomes an in-node
		{Owner: 5, Owned: 1, Weight: 0.05}, // in-node 1 gets a second owner
		{Owner: 2, Owned: 5, Weight: 0.05}, // 5 becomes virtual
		{Owner: 5, Owned: 1, Remove: true}, // and loses it again
		{Owner: 5, Owned: 0, Remove: true}, // 0 is no in-node again
		{Owner: 2, Owned: 5, Remove: true}, // 2's stake in 5 goes
		{Owner: 3, Owned: 4, Weight: 0.05}, // 4 becomes virtual
		{Owner: 3, Owned: 4, Remove: true}, // and loses its stake
	}
	var applied atomic.Int64
	quit, done, readerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer func() {
		close(quit)
		<-done
		<-readerDone
	}()
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			if err := coord.ApplyUpdate(ctx, cycle[i%len(cycle)]); err != nil {
				t.Error(err)
				return
			}
			applied.Add(1)
		}
	}()
	go func() {
		defer close(readerDone)
		q := control.Query{S: 4, T: 2}
		for {
			select {
			case <-quit:
				return
			default:
			}
			pa, err := sites[0].Evaluate(ctx, q, EvalOptions{UseCache: true})
			if err != nil || pa.Ans == control.False {
				t.Errorf("site A on %v: %+v, %v", q, pa, err)
				return
			}
			pa.Release()
		}
	}()
	for i := 0; i < 1000 || applied.Load() < 1000; i++ {
		select {
		case <-done:
			t.Fatal("the writer stopped")
		case <-readerDone:
			t.Fatal("the second reader stopped")
		default:
		}
		for _, q := range []control.Query{{S: 4, T: 2}, {S: 0, T: 7}} {
			if got, _, err := coord.Answer(ctx, q); err != nil || !got {
				t.Fatalf("query %d: %v answered %v, %v", i, q, got, err)
			}
		}
	}
}
