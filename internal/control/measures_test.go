package control

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestCoalitionControlledSet(t *testing.T) {
	// Neither 0 nor 1 alone controls 2 (30% each), but together they do.
	g := build(t, 4,
		graph.Edge{From: 0, To: 2, Weight: 0.3},
		graph.Edge{From: 1, To: 2, Weight: 0.3},
		graph.Edge{From: 2, To: 3, Weight: 0.9},
	)
	if CBE(g, Query{0, 2}) || CBE(g, Query{1, 2}) {
		t.Fatal("singletons must not control")
	}
	set := CoalitionControlledSet(g, []graph.NodeID{0, 1})
	if !set.Has(2) || !set.Has(3) {
		t.Fatalf("coalition set = %v", set)
	}
	if !CoalitionControls(g, []graph.NodeID{0, 1}, 3) {
		t.Fatal("coalition control missed")
	}
	if CoalitionControls(g, []graph.NodeID{0}, 2) {
		t.Fatal("singleton coalition invented control")
	}
	if !CoalitionControls(g, []graph.NodeID{0, 1}, 1) {
		t.Fatal("coalition trivially controls its members")
	}
}

func TestCoalitionDegenerate(t *testing.T) {
	g := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.6})
	if s := CoalitionControlledSet(g, nil); len(s) != 0 {
		t.Fatalf("empty coalition controls %v", s)
	}
	if s := CoalitionControlledSet(g, []graph.NodeID{77}); len(s) != 0 {
		t.Fatalf("dead coalition controls %v", s)
	}
	// Duplicate seeds must not double-count stakes.
	g2 := build(t, 2, graph.Edge{From: 0, To: 1, Weight: 0.3})
	if CoalitionControls(g2, []graph.NodeID{0, 0}, 1) {
		t.Fatal("duplicated seed double-counted its stake")
	}
}

// TestQuickCoalitionSingletonMatchesControlledSet: a coalition of one is the
// plain controlled set.
func TestQuickCoalitionSingletonMatchesControlledSet(t *testing.T) {
	f := func(seed int64, nn, mm, ss uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%30)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		s := graph.NodeID(int(ss) % n)
		a := ControlledSet(g, s)
		b := CoalitionControlledSet(g, []graph.NodeID{s})
		if len(a) != len(b) {
			return false
		}
		for v := range a {
			if !b.Has(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoalitionMonotone: adding seeds never shrinks the controlled set.
func TestQuickCoalitionMonotone(t *testing.T) {
	f := func(seed int64, nn, mm, s1, s2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%30)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		a := graph.NodeID(int(s1) % n)
		b := graph.NodeID(int(s2) % n)
		small := CoalitionControlledSet(g, []graph.NodeID{a})
		big := CoalitionControlledSet(g, []graph.NodeID{a, b})
		for v := range small {
			if !big.Has(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipViaControl(t *testing.T) {
	g := diamond(t)
	// s controls both intermediaries; their stakes in t are 0.3 + 0.3.
	if got := OwnershipViaControl(g, 0, 3); got < 0.59 || got > 0.61 {
		t.Fatalf("commanded ownership = %g, want 0.6", got)
	}
	// The lone 40% shareholder commands only its direct stake.
	g2 := build(t, 3,
		graph.Edge{From: 0, To: 2, Weight: 0.4},
		graph.Edge{From: 1, To: 2, Weight: 0.6},
	)
	if got := OwnershipViaControl(g2, 0, 2); got != 0.4 {
		t.Fatalf("commanded = %g, want 0.4", got)
	}
	if OwnershipViaControl(g2, 0, 0) != 1 {
		t.Fatal("self ownership must be 1")
	}
	if OwnershipViaControl(g2, 9, 0) != 0 || OwnershipViaControl(g2, 0, 9) != 0 {
		t.Fatal("missing nodes must command 0")
	}
}

// TestQuickOwnershipConsistentWithControl: commanded ownership exceeds 1/2
// iff control holds.
func TestQuickOwnershipConsistentWithControl(t *testing.T) {
	f := func(seed int64, nn, mm, ss, tt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nn%30)
		g := gen.Random(n, int(mm)%(4*n), rng.Int63())
		s := graph.NodeID(int(ss) % n)
		t := graph.NodeID(int(tt) % n)
		own := OwnershipViaControl(g, s, t)
		ctl := CBE(g, Query{s, t})
		if own < 0 || own > 1 {
			return false
		}
		return graph.ExceedsControl(own) == ctl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSingletonCoalitionIsControlledSet200Seeds: over 200 seeded graphs, a
// coalition of one is the plain controlled set, on the live graph and on a
// frozen snapshot, and both equal the literal rescan formulation
// (SerialBaselineSet), which shares no code with the worklist.
func TestSingletonCoalitionIsControlledSet200Seeds(t *testing.T) {
	sameSet := func(a, b graph.NodeSet) bool {
		if len(a) != len(b) {
			return false
		}
		for v := range a {
			if !b.Has(v) {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := gen.Random(n, rng.Intn(4*n), rng.Int63())
		fz := graph.Freeze(g)
		for q := 0; q < 4; q++ {
			s := graph.NodeID(rng.Intn(n + 2)) // ids ≥ n are not live
			want := SerialBaselineSet(g, s)
			for name, got := range map[string]graph.NodeSet{
				"coalition":      CoalitionControlledSet(g, []graph.NodeID{s}),
				"controlled-set": ControlledSet(g, s),
				"frozen":         ControlledSet(fz, s),
			} {
				if !sameSet(got, want) {
					t.Fatalf("seed %d source %d: %s = %v, literal Algorithm 1 = %v", seed, s, name, got, want)
				}
			}
		}
	}
}
