package partition

import (
	"math/rand"
	"slices"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// stake is one stake record, as ApplyStake takes it.
type stake struct {
	owner, owned graph.NodeID
	remove       bool
}

// stakeCycle returns four records that each move p's sets and leave p as
// it found them: a member of R(V^in) takes a stake in a member outside it,
// which floods R(V^in) forward; a member outside C(V^virt) takes a stake in
// a company of another partition that p does not hold yet, a new virtual
// node, which floods C(V^virt) back; and both stakes are divested again,
// which clears and refloods what the floods marked. r must be p's Reach.
func stakeCycle(tb testing.TB, pi *Partitioning, p *Partition, r *Reach) []stake {
	tb.Helper()
	u, v, w, f := graph.None, graph.None, graph.None, graph.None
	for x := graph.NodeID(0); int(x) < len(pi.Assign); x++ {
		switch {
		case pi.Assign[x] != p.ID:
			if f == graph.None && pi.Assign[x] >= 0 && !p.Virtual.Has(x) {
				f = x
			}
		case u == graph.None && r.fwd.has(x):
			u = x
		case v == graph.None && !r.fwd.has(x):
			v = x
		case w == graph.None && !r.bwd.has(x):
			w = x
		}
	}
	if u == graph.None || v == graph.None || w == graph.None || f == graph.None || p.Local.HasEdge(u, v) {
		tb.Fatalf("partition %d has no stake cycle: %d %d %d %d", p.ID, u, v, w, f)
	}
	return []stake{{u, v, false}, {w, f, false}, {u, v, true}, {w, f, true}}
}

// apply applies st to p and fails unless it changed p.
func apply(tb testing.TB, p *Partition, st stake) {
	if res, err := p.ApplyStake(st.owner, st.owned, 0.2, st.remove); err != nil || !res.Changed {
		tb.Fatalf("%+v: %+v, %v", st, res, err)
	}
}

// TestRepairReachAllocs: once its scratch is warm, a repair allocates
// nothing, nor does the stake it follows, over a cycle of floods, clears
// and refloods on both sides. Each repair must leave the sets equal to a
// fresh BuildReach.
func TestRepairReachAllocs(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 3, NodesPerCountry: 1500, InterconnectRate: 0.02,
		AvgOutDegree: 3, Seed: 5})
	pi, err := Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		t.Fatal(err)
	}
	p := pi.Parts[1]
	var r, fresh Reach
	p.BuildReach(&r)
	cycle := stakeCycle(t, pi, p, &r)
	for _, st := range cycle {
		apply(t, p, st)
		p.RepairReach(&r, st.owner, st.owned, st.remove)
		if p.BuildReach(&fresh); !r.Equal(&fresh) {
			t.Fatalf("after %+v: the repaired sets differ from BuildReach's", st)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		st := cycle[i%len(cycle)]
		i++
		apply(t, p, st)
		p.RepairReach(&r, st.owner, st.owned, st.remove)
	})
	if allocs != 0 {
		t.Fatalf("a warm stake and repair allocated %.1f times, want 0", allocs)
	}
}

// mixStakes draws n stakes whose owners p stores the way the benchmark's
// update-mix workload draws its updates: a random company takes a stake in
// a random other one, which holds at most 0.6 already, where neither holds
// a stake in the other; three in four are cross-border. Each is returned
// as its add followed by its divestment, so the sequence leaves p as it
// found it.
func mixStakes(pi *Partitioning, p *Partition, n int, seed int64) []stake {
	rng := rand.New(rand.NewSource(seed))
	members := p.Local.AppendLive(nil)
	members = slices.DeleteFunc(members, func(v graph.NodeID) bool { return !p.Members.Has(v) })
	g := pi.Merge()
	var out []stake
	for len(out) < 2*n {
		u, v := members[rng.Intn(len(members))], graph.NodeID(rng.Intn(g.Cap()))
		domestic := len(out)%8 == 6
		if u != v && (pi.Assign[v] == p.ID) == domestic && !g.HasEdge(u, v) && !g.HasEdge(v, u) && g.InSum(v) <= 0.6 {
			out = append(out, stake{u, v, false}, stake{u, v, true})
		}
	}
	return out
}

// BenchmarkReachAfterStake applies one stake record per op to partition 2
// of the benchmark's xborder graph (gen.EU, 4 countries of 8 000 companies,
// out-degree 3, 1 % border companies, seed 2021), whose R(V^in) holds 3 470
// nodes, cycling through eight of mixStakes' records, and brings the
// partition's sets up to date after it: "rebuild" runs BuildReach, as a
// site did on its first read after an update, and "repair" runs
// RepairReach, as Apply does.
func BenchmarkReachAfterStake(b *testing.B) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 8000, InterconnectRate: 0.01,
		AvgOutDegree: 3, Seed: 2021})
	pi, err := Split(eu.G, eu.Country, eu.Countries)
	if err != nil {
		b.Fatal(err)
	}
	p := pi.Parts[2]
	var r Reach
	p.BuildReach(&r)
	cycle := mixStakes(pi, p, 4, 64)
	for _, v := range []struct {
		name string
		sync func(st stake)
	}{
		{"rebuild", func(stake) { p.BuildReach(&r) }},
		{"repair", func(st stake) { p.RepairReach(&r, st.owner, st.owned, st.remove) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := cycle[i%len(cycle)]
				apply(b, p, st)
				v.sync(st)
			}
			// Leave the partition as the cycle found it for the next run.
			for i := b.N; i%len(cycle) != 0; i++ {
				st := cycle[i%len(cycle)]
				apply(b, p, st)
				v.sync(st)
			}
		})
	}
}
