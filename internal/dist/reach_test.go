package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// sameReach fails unless s's reachability sets, repaired by every Apply so
// far, equal the ones BuildReach computes from its partition as it stands.
func sameReach(t *testing.T, tag string, s *Site) {
	t.Helper()
	var fresh partition.Reach
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.part.BuildReach(&fresh)
	if !s.reach.Equal(&fresh) {
		t.Fatalf("%s: site %d's repaired reachability sets differ from BuildReach's", tag, s.part.ID)
	}
}

// TestReachRepairMatchesBuild is the differential of the reach repair. Over
// 1 000 seeds of small random ownership graphs on 2–4 sites, a random
// schedule of stake records goes to every site, each applying the half it
// holds: stakes added and re-merged, existing stakes removed (which drops
// an in-node at the owned company's home when it was the last foreign
// owner, and a virtual stub with its last in-edge), removals of stakes
// that do not exist, and stakes into foreign ids past the end of every
// site's bitsets. After every record, every site's sets must equal a fresh
// BuildReach.
func TestReachRepairMatchesBuild(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n, k := 6+rng.Intn(25), 2+rng.Intn(3)
		g := gen.Random(n, n+rng.Intn(2*n), int64(seed))
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		pi, err := partition.Split(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		sites := make([]*Site, k)
		for i, p := range pi.Parts {
			sites[i] = NewSite(p, 1)
		}
		for step := 0; step < 40; step++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			rec := store.Record{Kind: store.KindStake, Owner: int32(u), Owned: int32(v), Weight: 0.05 + 0.5*rng.Float64()}
			switch rng.Intn(5) {
			case 0: // a stake into a foreign id no site stores, past every bitset
				rec.Owned = int32(n + rng.Intn(150))
			case 1, 2: // a removal, of an existing stake where there is one
				rec.Remove = true
				if owned := g.Successors(u); len(owned) > 0 {
					slices.Sort(owned)
					rec.Owned = int32(owned[rng.Intn(len(owned))])
				}
			}
			if rec.Owner == rec.Owned {
				continue
			}
			if rec.Remove {
				g.RemoveEdge(u, graph.NodeID(rec.Owned))
			} else {
				g.Revive(graph.NodeID(rec.Owned))
				if err := g.MergeEdge(u, graph.NodeID(rec.Owned), rec.Weight); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range sites {
				if _, err := s.Apply(rec); err != nil {
					t.Fatalf("seed %d step %d %+v: %v", seed, step, rec, err)
				}
				sameReach(t, fmt.Sprintf("seed %d (%d sites) step %d %+v", seed, k, step, rec), s)
			}
		}
	}
}
