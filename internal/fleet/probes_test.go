package fleet

// In-package probe tests: violations are injected by poking the unexported
// counters and watermarks directly — the only way to make a healthy gate or
// follower lie without a real corruption.

import (
	"context"
	"strings"
	"testing"

	"ccp/internal/dist"
	"ccp/internal/gen"
	"ccp/internal/partition"
	"ccp/internal/store"
)

func TestGateAccountingProbeBalances(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 2, MaxQueue: 2})
	probe := g.AccountingProbe()
	if probe.Name != "gate.accounting" {
		t.Fatalf("probe name = %q", probe.Name)
	}
	if r := probe.Check(); !r.OK {
		t.Fatalf("fresh gate violated: %s", r.Detail)
	}

	// Normal traffic: admissions, releases, and sheds all balance.
	ctx := context.Background()
	var releases []func()
	for i := 0; i < 2; i++ {
		rel, err := g.Admit(ctx)
		if err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	if r := probe.Check(); !r.OK {
		t.Fatalf("violated with slots full: %s", r.Detail)
	}
	for _, rel := range releases {
		rel()
	}
	if r := probe.Check(); !r.OK {
		t.Fatalf("violated after release: %s", r.Detail)
	}
	a := g.Accounting()
	if a.Offered != 2 || a.Admitted != 2 || a.Pending != 0 {
		t.Fatalf("accounting = %+v", a)
	}

	// Injection: bump an outcome counter without an arrival. The books no
	// longer balance, quiescently — the probe must fire.
	g.met.admitted.Inc()
	r := probe.Check()
	if r.OK {
		t.Fatal("probe passed over broken accounting")
	}
	if !strings.Contains(r.Detail, "offered 2") || !strings.Contains(r.Detail, "admitted 3") {
		t.Fatalf("violation detail = %q", r.Detail)
	}
}

// testFollower builds a minimal follower around a real in-memory site —
// enough state for the divergence probe without a leader or TCP.
func testFollower(t *testing.T) *Follower {
	t.Helper()
	g := gen.Random(40, 120, 1)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatalf("partitioning: %v", err)
	}
	f := &Follower{}
	f.site.Store(dist.NewSite(pi.Parts[0], 1))
	return f
}

func TestDivergenceProbeHealthy(t *testing.T) {
	f := testFollower(t)
	f.applied.Store(100)
	f.leaderSeq.Store(100)
	f.boots.Store(1)
	probe := f.DivergenceProbe(1000)
	if probe.Name != "fleet.divergence" {
		t.Fatalf("probe name = %q", probe.Name)
	}
	if r := probe.Check(); !r.OK {
		t.Fatalf("converged follower violated: %s", r.Detail)
	}
	// Normal progress stays green.
	f.applied.Store(150)
	f.leaderSeq.Store(160)
	if r := probe.Check(); !r.OK {
		t.Fatalf("lagging-within-ceiling follower violated: %s", r.Detail)
	}
}

func TestDivergenceProbeAppliedAheadOfLeader(t *testing.T) {
	f := testFollower(t)
	f.applied.Store(120)
	f.leaderSeq.Store(100)
	r := f.DivergenceProbe(0).Check()
	if r.OK || !strings.Contains(r.Detail, "ahead of leader head") {
		t.Fatalf("got %+v, want applied-ahead violation", r)
	}
}

func TestDivergenceProbeEpochAheadOfApplied(t *testing.T) {
	f := testFollower(t)
	f.applied.Store(50)
	f.leaderSeq.Store(100)
	if _, err := f.site.Load().Apply(store.Record{Kind: store.KindMark, Seq: 80}); err != nil {
		t.Fatal(err)
	}
	r := f.DivergenceProbe(0).Check()
	if r.OK || !strings.Contains(r.Detail, "epoch 80 ahead of applied seq 50") {
		t.Fatalf("got %+v, want epoch-ahead violation", r)
	}
}

func TestDivergenceProbeLagCeiling(t *testing.T) {
	f := testFollower(t)
	f.applied.Store(10)
	f.leaderSeq.Store(500) // frozen follower: the leader ran away
	probe := f.DivergenceProbe(100)
	r := probe.Check()
	if r.OK || !strings.Contains(r.Detail, "exceeds ceiling 100") {
		t.Fatalf("got %+v, want lag-ceiling violation", r)
	}
	// With no ceiling the same lag is legal.
	if r := f.DivergenceProbe(0).Check(); !r.OK {
		t.Fatalf("lag violated with ceiling disabled: %s", r.Detail)
	}
}

func TestDivergenceProbeRewindNeedsRebootstrap(t *testing.T) {
	f := testFollower(t)
	f.applied.Store(200)
	f.leaderSeq.Store(200)
	f.boots.Store(1)
	probe := f.DivergenceProbe(0)
	if r := probe.Check(); !r.OK {
		t.Fatalf("baseline: %s", r.Detail)
	}

	// The applied watermark runs backwards with no re-bootstrap: divergence.
	f.applied.Store(150)
	f.leaderSeq.Store(200)
	r := probe.Check()
	if r.OK || !strings.Contains(r.Detail, "rewound 200 -> 150 without a re-bootstrap") {
		t.Fatalf("got %+v, want rewind violation", r)
	}

	// The same rewind across a re-bootstrap (truncated leader) is legal and
	// resets the baseline.
	f.boots.Add(1)
	if r := probe.Check(); !r.OK {
		t.Fatalf("rewind across re-bootstrap violated: %s", r.Detail)
	}
	f.applied.Store(140) // rewind again after the reset: violation again
	if r := probe.Check(); r.OK {
		t.Fatal("post-bootstrap rewind passed")
	}
}
