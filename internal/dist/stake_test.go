package dist

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// meeting holds each Apply that arrives at it until want of them have
// arrived, or a second has passed.
type meeting struct {
	want    int32
	arrived atomic.Int32
	all     chan struct{}
}

func newMeeting(want int32) *meeting { return &meeting{want: want, all: make(chan struct{})} }

// arrive reports whether every expected call arrived while this one waited.
func (m *meeting) arrive() bool {
	if m.arrived.Add(1) == m.want {
		close(m.all)
	}
	select {
	case <-m.all:
		return true
	case <-time.After(time.Second):
		return false
	}
}

// meetingClient counts the Apply calls that reach its client and holds each
// at the current meeting before passing it on.
type meetingClient struct {
	SiteClient
	calls atomic.Int64
	meet  *atomic.Pointer[meeting]
}

var errMissedMeeting = errors.New("returned before the other home's Apply started")

func (c *meetingClient) Apply(ctx context.Context, rec store.Record) (UpdateResult, error) {
	c.calls.Add(1)
	if !c.meet.Load().arrive() {
		return UpdateResult{}, errMissedMeeting
	}
	return c.SiteClient.Apply(ctx, rec)
}

// TestCrossStakeIsOneRound: a cross stake makes exactly one Apply per home
// site, and the first does not return before the second has started; a
// domestic stake reaches its one site.
func TestCrossStakeIsOneRound(t *testing.T) {
	pi, err := partition.Split(graph.New(9), []int{0, 0, 0, 1, 1, 1, 2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var meet atomic.Pointer[meeting]
	counters := make([]*meetingClient, 3)
	clients := make([]SiteClient, 3)
	for i, p := range pi.Parts {
		counters[i] = &meetingClient{SiteClient: &LocalClient{Site: NewSite(p, 1)}, meet: &meet}
		clients[i] = counters[i]
	}
	coord := NewCoordinator(clients, Options{Workers: 1})
	for _, tc := range []struct {
		name  string
		up    StakeUpdate
		calls [3]int64
	}{
		{"cross", StakeUpdate{Owner: 0, Owned: 4, Weight: 0.2}, [3]int64{1, 1, 0}},
		{"cross removal", StakeUpdate{Owner: 0, Owned: 4, Remove: true}, [3]int64{1, 1, 0}},
		{"cross from the other side", StakeUpdate{Owner: 7, Owned: 1, Weight: 0.3}, [3]int64{1, 0, 1}},
		{"domestic", StakeUpdate{Owner: 0, Owned: 2, Weight: 0.2}, [3]int64{1, 0, 0}},
	} {
		var want int32
		for i, c := range counters {
			c.calls.Store(0)
			want += int32(tc.calls[i])
		}
		meet.Store(newMeeting(want))
		if err := coord.ApplyUpdate(context.Background(), tc.up); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := [3]int64{counters[0].calls.Load(), counters[1].calls.Load(), counters[2].calls.Load()}; got != tc.calls {
			t.Fatalf("%s: Apply calls per site %v, want %v", tc.name, got, tc.calls)
		}
	}
}

// sameBoundary fails unless every site holds the in-nodes, foreign owner
// sets, virtual nodes and live nodes that partition.Split gives g under
// assign.
func sameBoundary(t *testing.T, tag string, sites []*Site, g *graph.Graph, assign []int) {
	t.Helper()
	want, err := partition.Split(g, assign, len(sites))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		s.mu.RLock()
		in, owners := maps.Clone(s.part.InNodes), maps.Clone(s.part.CrossIn)
		virt, live := maps.Clone(s.part.Virtual), s.part.Local.AppendLive(nil)
		s.mu.RUnlock()
		w := want.Parts[i]
		if !maps.Equal(in, w.InNodes) || !maps.EqualFunc(owners, w.CrossIn, maps.Equal) {
			t.Fatalf("%s: site %d holds in-nodes %v with owners %v, Split gives %v with %v",
				tag, i, in, owners, w.InNodes, w.CrossIn)
		}
		if wantLive := w.Local.AppendLive(nil); !maps.Equal(virt, w.Virtual) || !slices.Equal(live, wantLive) {
			t.Fatalf("%s: site %d holds virtual nodes %v and live nodes %v, Split gives %v and %v",
				tag, i, virt, live, w.Virtual, wantLive)
		}
	}
}

// TestApplyUpdateMatchesSplit is the update path's differential. Over 1 000
// seeds of small random ownership graphs on 2–4 in-process sites with the
// cache on, a random schedule of stakes added and removed goes through
// Coordinator.ApplyUpdate and into a mirrored global graph. After every
// update each site's in-nodes and foreign owner sets must equal those of
// partition.Split on the mirror, and a random query must equal control.CBE.
func TestApplyUpdateMatchesSplit(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	ctx := context.Background()
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n, k := 6+rng.Intn(19), 2+rng.Intn(3)
		mirror := gen.Random(n, n+rng.Intn(2*n), int64(seed))
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		pi, err := partition.Split(mirror, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		sites := make([]*Site, k)
		clients := make([]SiteClient, k)
		for i, p := range pi.Parts {
			sites[i] = NewSite(p, 1)
			clients[i] = &LocalClient{Site: sites[i]}
		}
		coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
		if err := coord.PrecomputeAll(ctx); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			// A stake takes at most what v's other holders leave, so the
			// mirror stays an ownership graph.
			up := StakeUpdate{Owner: u, Owned: v, Weight: min(0.05+0.5*rng.Float64(), 1-mirror.InSum(v))}
			if mirror.HasEdge(u, v) && rng.Intn(2) == 0 {
				up = StakeUpdate{Owner: u, Owned: v, Remove: true}
			} else if up.Weight < 0.01 {
				continue
			}
			tag := fmt.Sprintf("seed %d (%d sites) step %d %+v", seed, k, step, up)
			if err := coord.ApplyUpdate(ctx, up); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if up.Remove {
				mirror.RemoveEdge(u, v)
			} else if err := mirror.MergeEdge(u, v, up.Weight); err != nil {
				t.Fatal(err)
			}
			sameBoundary(t, tag, sites, mirror, assign)
			q := control.Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
			got, _, err := coord.Answer(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v: %v", tag, q, err)
			}
			if want := control.CBE(mirror, q); got != want {
				t.Fatalf("%s: %v answered %v, CBE %v", tag, q, got, want)
			}
		}
	}
}

// TestConflictingUpdatesKeepInNodes races adds and removes of one cross
// stake, (0, 2) from site 0 into site 1, from 8 goroutines at once, 1 000
// rounds. After every round, company 2 must be an in-node of site 1 exactly
// when site 0 holds the edge: the two halves of every update must land in
// the same order at both sites.
func TestConflictingUpdatesKeepInNodes(t *testing.T) {
	g := graph.New(4)
	pi, err := partition.Split(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{NewSite(pi.Parts[0], 1), NewSite(pi.Parts[1], 1)}
	coord := NewCoordinator([]SiteClient{&LocalClient{Site: sites[0]}, &LocalClient{Site: sites[1]}},
		Options{Workers: 1})
	ctx := context.Background()
	const writers, rounds = 8, 1000
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				up := StakeUpdate{Owner: 0, Owned: 2, Weight: 0.1, Remove: (round+w)%2 == 1}
				if err := coord.ApplyUpdate(ctx, up); err != nil && !up.Remove {
					t.Errorf("round %d: %+v: %v", round, up, err)
				}
			}()
		}
		wg.Wait()
		edge, in := sites[0].part.Local.HasEdge(0, 2), sites[1].part.InNodes.Has(2)
		if edge != in {
			t.Fatalf("round %d: site 0 holds the edge %v, but 2 is an in-node of site 1 %v", round, edge, in)
		}
	}
}
