package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
)

// tiny keeps experiment smoke tests fast.
var tiny = Config{Scale: 0.02, Seed: 7, Workers: 2, Repeats: 1}

func TestFig8aSmoke(t *testing.T) {
	pts, err := Fig8a(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("x not increasing: %v", pts)
		}
	}
	for _, p := range pts {
		if p.Total <= 0 {
			t.Fatalf("non-positive total: %v", p)
		}
	}
}

func TestFig8bSmoke(t *testing.T) {
	pts, err := Fig8b(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 || pts[0].X != 2 || pts[4].X != 10 {
		t.Fatalf("points = %v", pts)
	}
}

func TestFig8cSmoke(t *testing.T) {
	pts, err := Fig8c(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Higher interconnection → more traffic.
	if pts[len(pts)-1].Bytes <= pts[0].Bytes {
		t.Fatalf("traffic did not grow with the interconnection rate: first %d last %d",
			pts[0].Bytes, pts[len(pts)-1].Bytes)
	}
}

// shapeCfg is the smallest scale at which the Section VIII shapes below are
// not degenerate (at tiny's scale every traffic-table partial is empty).
// Workers 0 runs the reducer inline at GOMAXPROCS 1 and sharded otherwise,
// so `go test -cpu 1,4 -run Shape` checks both mutator modes.
func shapeCfg(seed int64) Config {
	return Config{Scale: 0.25, Seed: seed, Workers: 0, Repeats: 1}
}

// TestFig8cShape asserts Fig. 8.c's claim on its work counter: the bytes of
// partial answers shipped rise strictly across the five interconnection
// rates, on every seed.
func TestFig8cShape(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		pts, err := Fig8c(shapeCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Bytes <= pts[i-1].Bytes {
				t.Fatalf("seed %d: traffic %d B at %g%% does not exceed %d B at %g%%: %v",
					seed, pts[i].Bytes, pts[i].X, pts[i-1].Bytes, pts[i-1].X, pts)
			}
		}
	}
}

func TestFig8dSmoke(t *testing.T) {
	pts, err := Fig8d(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestFig8eSmoke(t *testing.T) {
	pts, err := Fig8e(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestFig8fSmoke(t *testing.T) {
	pts, err := Fig8f(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	series := map[string]bool{}
	for _, p := range pts {
		series[p.Series] = true
	}
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
}

func TestFig8gSmoke(t *testing.T) {
	pts, err := Fig8g(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Speedup <= 0 {
			t.Fatalf("bad speedup: %v", p)
		}
	}
}

func TestFig8hSmoke(t *testing.T) {
	pts, err := Fig8h(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
}

// TestFig8hShape asserts Fig. 8.h's claim on its work counter: pre-caching
// leaves only the endpoint sites evaluating live. On every point and seed,
// each query evaluates all 4 sites live (SitesQueried − CacheHits) on the
// uncached cluster and at most the 2 endpoint sites on the pre-cached one —
// the first query shipping the cached partials, the second revalidating
// them — and both clusters answer as CBE.
func TestFig8hShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		err := fig8hPoints(shapeCfg(seed), func(p fig8hPoint) error {
			want := control.CBE(p.noCache.g, p.q)
			for _, c := range []struct {
				name     string
				cl       *euCluster
				min, max int
			}{{"uncached", p.noCache, 4, 4}, {"pre-cached", p.cached, 0, 2}} {
				for round := 0; round < 2; round++ {
					got, m, err := c.cl.coord.Answer(context.Background(), p.q)
					if err != nil {
						return err
					}
					if live := m.SitesQueried - m.CacheHits; live < c.min || live > c.max || got != want {
						return fmt.Errorf("seed %d %d/partition rate %g %s round %d: %d sites live of %d, answer %v, CBE %v",
							seed, p.per, p.rate, c.name, round, live, m.SitesQueried, got, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNetworkTrafficSmoke(t *testing.T) {
	rows, err := NetworkTraffic(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PartialNodes > r.PartitionNodes {
			t.Fatalf("partial answer bigger than partition: %v", r)
		}
		if r.Bytes <= 0 {
			t.Fatalf("no traffic: %v", r)
		}
	}
}

// TestNetworkTrafficShape asserts the traffic table's claim, partial ≪
// partition: on every row and seed, a site's partial answer has under a
// tenth of its partition's nodes and edges, and it is not empty.
func TestNetworkTrafficShape(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rows, err := NetworkTraffic(shapeCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.PartialNodes == 0 || 10*r.PartialNodes >= r.PartitionNodes || 10*r.PartialEdges >= r.PartitionEdges {
				t.Fatalf("seed %d: partial not under a tenth of its partition: %v", seed, r)
			}
		}
	}
}

func TestRIADSmoke(t *testing.T) {
	r, err := RIAD(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes <= 0 || r.Parallel <= 0 || r.Serial <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestSerialSpeedupSmoke(t *testing.T) {
	rows, err := SerialSpeedup(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("bad speedup row: %v", r)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	rows, err := Ablations(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// The ablations table is the only home of abl-frontier ("full rescan")
	// and of the Vadalog comparison (the datalog row against CBE).
	have := make(map[string]bool, len(rows))
	for _, r := range rows {
		have[r.Variant] = true
	}
	for _, want := range []string{"full rescan", "datalog semi-naive", "CBE worklist"} {
		if !have[want] {
			t.Fatalf("ablations lost the %q row: %v", want, rows)
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	a, err := Fig9a(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 {
		t.Fatalf("fig9a points = %d", len(a))
	}
	b, err := Fig9b(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("fig9b empty")
	}
}

func TestPickQueryPrefersNonTrivialEndpoints(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 5000, AvgOutDegree: 2, Seed: 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		q := pickQuery(g, rng)
		if !g.Alive(q.S) || !g.Alive(q.T) {
			t.Fatalf("dead endpoints: %v", q)
		}
		hasCtl := false
		g.EachOut(q.S, func(u graph.NodeID, w float64) {
			if graph.ExceedsControl(w) {
				hasCtl = true
			}
		})
		if !hasCtl {
			t.Fatalf("source %d has no controlling stake", q.S)
		}
	}
}

func TestContrastSmoke(t *testing.T) {
	rows, err := Contrast(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ReachTime <= 0 || r.ControlTime <= 0 {
			t.Fatalf("row = %+v", r)
		}
	}
}

func TestUpdateLatencySmoke(t *testing.T) {
	r, err := UpdateLatency(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if r.Warm <= 0 || r.AfterUpdate <= 0 || r.Recovered <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

// TestUpdateLatencyShape asserts the update-latency claim on its work
// counter: after one stake update inside a site that holds neither
// endpoint, the next query's rebuild of that site's cache copies no more
// nodes than the site's core (the graph.clone span's node count, not a
// time), and the answer equals CBE on the updated graph.
func TestUpdateLatencyShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, err := newUpdateCluster(shapeCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, _, err := c.coord.Answer(ctx, c.q); err != nil {
			t.Fatal(err)
		}
		if err := c.coord.ApplyUpdate(ctx, c.up); err != nil {
			t.Fatal(err)
		}
		g := c.g.Clone()
		if err := g.MergeEdge(c.up.Owner, c.up.Owned, c.up.Weight); err != nil {
			t.Fatal(err)
		}
		got, _, tr, err := c.coord.AnswerTraced(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if want := control.CBE(g, c.q); got != want {
			t.Fatalf("seed %d %v after %+v: %v, CBE %v", seed, c.q, c.up, got, want)
		}
		p := c.pi.Parts[1] // the site the update landed at, updated in place
		var r partition.Reach
		var sc partition.SliceScratch
		p.BuildReach(&r)
		core := int64(len(p.Slice(&r, graph.None, graph.None, &sc)))
		var clones []int64
		for _, e := range tr.Events {
			if e.Type == flight.GraphClone && e.Site == 1 {
				clones = append(clones, e.A2)
			}
		}
		if len(clones) != 1 || clones[0] > core {
			t.Fatalf("seed %d: site 1 rebuilt copying %v nodes, its core has %d of %d",
				seed, clones, core, p.Local.NumNodes())
		}
	}
}

func TestRowStringers(t *testing.T) {
	rows := []fmt.Stringer{
		DistPoint{X: 4000, SiteTime: time.Millisecond, CoordTime: time.Millisecond, Total: 2 * time.Millisecond, Bytes: 100},
		ParPoint{X: 8, Elapsed: time.Millisecond},
		ParPoint{X: 8, Series: "deg=2", Elapsed: time.Millisecond},
		SpeedupPoint{PartitionNodes: 4000, Rate: 0.01, Baseline: time.Second, Improved: time.Millisecond, Speedup: 1000},
		TrafficRow{PartitionNodes: 10, PartitionEdges: 20, Bytes: 2048},
		RIADResult{Nodes: 10, Edges: 20, Parallel: time.Millisecond, Serial: time.Second, Speedup: 1000},
		SerialRow{Degree: 2, Nodes: 10, Edges: 20},
		AblationRow{Variant: "x", Elapsed: time.Millisecond},
		Fig9Point{X: 10, Paths: 5, DNF: true},
		Fig9Point{X: 10, Series: "deg=2", Paths: 5},
		ContrastRow{PartitionNodes: 10},
		UpdateLatencyResult{Warm: time.Millisecond, AfterUpdate: time.Millisecond, Recovered: time.Millisecond},
	}
	for i, r := range rows {
		if r.String() == "" {
			t.Fatalf("row %d renders empty", i)
		}
	}
}
