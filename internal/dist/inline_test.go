package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
)

// spawnedClient hides its client's inline capability: the coordinator takes
// every one of its replies on a goroutine of its own, as it takes a
// RemoteClient's.
type spawnedClient struct{ SiteClient }

// inlineSites splits eu by country into pre-computed in-process sites.
func inlineSites(tb testing.TB, eu *gen.EUGraph) []*Site {
	tb.Helper()
	pi, err := partition.Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		tb.Fatal(err)
	}
	sites := make([]*Site, len(pi.Parts))
	for i, p := range pi.Parts {
		sites[i] = NewSite(p, 1)
		if _, err := sites[i].Precompute(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return sites
}

// localClients returns bare LocalClients over sites, or with spawned set the
// same clients behind spawnedClient.
func localClients(sites []*Site, spawned bool) []SiteClient {
	clients := make([]SiteClient, len(sites))
	for i, s := range sites {
		clients[i] = &LocalClient{Site: s, MeasureBytes: true}
		if spawned {
			clients[i] = spawnedClient{clients[i]}
		}
	}
	return clients
}

// eventTypes lists the types of a trace's events, sorted unless the sites
// answered in a fixed order.
func eventTypes(evs []flight.Event, sorted bool) []flight.Type {
	ts := make([]flight.Type, len(evs))
	for i, e := range evs {
		ts[i] = e.Type
	}
	if sorted {
		slices.Sort(ts)
	}
	return ts
}

// TestInlineRepliesMatchSpawned queries two copies of one in-process
// cluster, each through its own coordinator: one over bare LocalClients,
// which takes every free reply inline, and one over clients that hide the
// capability, which spawns a goroutine per site. For every cache setting,
// with sites answering in order and concurrently, and with the same stakes
// added to both between queries, the two must give the same answers, the
// same Metrics but for times (byte counts included) and traces with the same
// event types. Sites answering concurrently reply in any order, so when two
// of them decide a query either may be the one DecidedBy names.
func TestInlineRepliesMatchSpawned(t *testing.T) {
	for _, useCache := range []bool{false, true} {
		for _, sequential := range []bool{true, false} {
			name := fmt.Sprintf("cache=%v/sequential=%v", useCache, sequential)
			t.Run(name, func(t *testing.T) {
				taken := 0
				for seed := int64(0); seed < 20; seed++ {
					taken += inlineMatchesSpawned(t, seed, Options{UseCache: useCache, SequentialSites: sequential, Workers: 1})
				}
				if taken == 0 {
					t.Fatal("no site reply was free to take inline")
				}
			})
		}
	}
}

// inlineMatchesSpawned runs one seed of TestInlineRepliesMatchSpawned and
// returns how many site replies were not live evaluations.
func inlineMatchesSpawned(t *testing.T, seed int64, opts Options) int {
	t.Helper()
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 150, InterconnectRate: 0.02,
		AvgOutDegree: 3, Seed: seed})
	sequential := opts.SequentialSites
	inline := NewCoordinator(localClients(inlineSites(t, eu), false), opts)
	spawned := NewCoordinator(localClients(inlineSites(t, eu), true), opts)
	g := eu.G.Clone()
	rng := rand.New(rand.NewSource(seed))
	taken := 0
	for i, q := range append(diffQueries(eu, rng), diffQueries(eu, rng)...) {
		if i%5 == 4 {
			if up, ok := diffStake(eu, g, rng); ok {
				for _, c := range []*Coordinator{inline, spawned} {
					if err := c.ApplyUpdate(context.Background(), up); err != nil {
						t.Fatal(err)
					}
				}
				if err := g.MergeEdge(up.Owner, up.Owned, up.Weight); err != nil {
					t.Fatal(err)
				}
			}
		}
		gotA, gotM, gotTr, gotErr := inline.AnswerTraced(context.Background(), q)
		wantA, wantM, wantTr, wantErr := spawned.AnswerTraced(context.Background(), q)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("seed %d %v: inline err %v, spawned err %v", seed, q, gotErr, wantErr)
		}
		if gotA != wantA || gotA != control.CBE(g, q) {
			t.Fatalf("seed %d %v: inline %v, spawned %v, CBE %v", seed, q, gotA, wantA, control.CBE(g, q))
		}
		gotM, wantM = clearTimes(gotM), clearTimes(wantM)
		if !sequential && gotM.DecidedBy >= 0 && wantM.DecidedBy >= 0 {
			gotM.DecidedBy, wantM.DecidedBy = 0, 0
		}
		if *gotM != *wantM {
			t.Fatalf("seed %d %v: metrics differ:\ninline  %+v\nspawned %+v", seed, q, gotM, wantM)
		}
		if a, b := eventTypes(gotTr.Events, !sequential), eventTypes(wantTr.Events, !sequential); !slices.Equal(a, b) {
			t.Fatalf("seed %d %v: event types differ:\ninline  %v\nspawned %v", seed, q, a, b)
		}
		for _, e := range gotTr.Events {
			if e.Type == flight.SiteEvaluate && e.A2 != flight.EvalLive {
				taken++
			}
		}
	}
	return taken
}

// TestInlineRepliesWithFailingSite fails one site while the others answer
// inline: the query still fails with the failing site's typed error, and
// every goroutine the query spawned settles.
func TestInlineRepliesWithFailingSite(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 150, InterconnectRate: 0.02,
		AvgOutDegree: 3, Seed: 7})
	sites := inlineSites(t, eu)
	base := runtime.NumGoroutine()
	clients := localClients(sites, false)
	failing := sites[2].ID()
	clients[2] = &faultClient{SiteClient: clients[2],
		err: &SiteError{SiteID: failing, Op: "evaluate", Msg: "disk on fire"}}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	// s and t at site 0: every other site, warm or revalidating, is free.
	var q control.Query
	for v := graph.NodeID(0); int(v) < eu.G.Cap(); v++ {
		if eu.Country[v] == 0 && v != 0 {
			q = control.Query{S: 0, T: v}
			break
		}
	}
	for i := 0; i < 3; i++ {
		_, _, err := coord.Answer(context.Background(), q)
		var se *SiteError
		if !errors.As(err, &se) || se.SiteID != failing {
			t.Fatalf("query %d: err = %v (%T), want site %d's *SiteError", i, err, err, failing)
		}
	}
	waitForGoroutines(t, base)
}

// noWorkCluster is an in-process cluster on the graph of the benchmark's
// xborder workload (see BenchmarkLiveEvaluate) with its coordinator's copies
// warm, and queries no site needs to work for: every site either
// revalidates the coordinator's copy or decides the query by T1–T3.
func noWorkCluster(tb testing.TB, o *obs.Observer) (*Coordinator, []SiteClient, []control.Query) {
	tb.Helper()
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 8000, InterconnectRate: 0.01,
		AvgOutDegree: 3, Seed: 2021})
	sites := inlineSites(tb, eu)
	if o != nil {
		for _, s := range sites {
			s.Observe(o)
		}
	}
	clients := localClients(sites, false)
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1, Observer: o})
	rng := rand.New(rand.NewSource(1))
	var qs []control.Query
	for try := 0; try < 20000 && len(qs) < 32; try++ {
		q := control.Query{S: graph.NodeID(rng.Intn(eu.G.Cap())), T: graph.NodeID(rng.Intn(eu.G.Cap()))}
		if _, _, err := coord.Answer(context.Background(), q); err != nil {
			tb.Fatal(err)
		}
		free := true
		for _, cl := range clients {
			free = free && freeAt(coord, cl, q)
		}
		if free {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		tb.Fatal("no query is free at every site")
	}
	return coord, clients, qs
}

// freeAt reports whether cl answers q inline, with the options c would post.
func freeAt(c *Coordinator, cl SiteClient, q control.Query) bool {
	ie, ok := cl.(inlineEvaluator)
	if !ok {
		return false
	}
	_, _, err, ok := ie.evaluateInline(q, c.evalOptions(cl, 0, false))
	return ok && err == nil
}

// BenchmarkCoordinatorAnswer measures a query no site works for (see
// noWorkCluster): "answer" times the coordinator's Answer, "sites-serial" the
// same site calls made one after another, straight at the clients. The
// difference is the coordinator's fan-out and fan-in.
func BenchmarkCoordinatorAnswer(b *testing.B) {
	coord, clients, qs := noWorkCluster(b, nil)
	ctx := context.Background()
	b.Run("answer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := coord.Answer(ctx, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sites-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			for _, cl := range clients {
				if _, _, err := cl.Evaluate(ctx, q, coord.evalOptions(cl, 0, false)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestNoWorkAnswerAllocs pins the allocations of a query no site works for:
// with every site's reply taken inline, the coordinator spawns nothing.
func TestNoWorkAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins do not hold under -race")
	}
	coord, _, qs := noWorkCluster(t, nil)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := coord.Answer(context.Background(), qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocations per no-work answer", allocs)
	if allocs > 13 {
		t.Fatalf("a no-work answer allocated %.1f times, want at most 13", allocs)
	}
}

// TestSlowQueryThresholdAllocs pins that a slow-query threshold no query
// reaches costs an observed no-work answer nothing: it traces no query, so
// the answer allocates the same as with no threshold.
func TestSlowQueryThresholdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins do not hold under -race")
	}
	allocs := func(threshold time.Duration) float64 {
		coord, _, qs := noWorkCluster(t, obs.NewObserver(obs.ObserverConfig{SlowQueryThreshold: threshold}))
		i := 0
		return testing.AllocsPerRun(200, func() {
			if _, _, err := coord.Answer(context.Background(), qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	without, with := allocs(0), allocs(time.Hour)
	t.Logf("%.1f allocations per observed no-work answer, %.1f with a threshold", without, with)
	if with != without {
		t.Fatalf("a slow-query threshold moved an observed answer from %.1f to %.1f allocations", without, with)
	}
}
