package fleet

// In-package so the accounting probe test can inject a violation by poking
// the gate's unexported counters — the only way to make a healthy gate lie.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ccp/internal/dist"
	"ccp/internal/obs"
)

// counterWith sums the observer's counters matching name whose label string
// contains labelSub ("" matches any).
func counterWith(ob *obs.Observer, name, labelSub string) float64 {
	var total float64
	for _, v := range ob.Registry().Snapshot() {
		if v.Name == name && strings.Contains(v.Labels, labelSub) {
			total += v.Value
		}
	}
	return total
}

func wantOverload(t *testing.T, err error, reasonSub string) *dist.OverloadError {
	t.Helper()
	if err == nil {
		t.Fatalf("admission succeeded, want an overload shed (%s)", reasonSub)
	}
	var oe *dist.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("shed error is %T (%v), want *dist.OverloadError", err, err)
	}
	if !strings.Contains(oe.Reason, reasonSub) {
		t.Fatalf("shed reason %q, want it to mention %q", oe.Reason, reasonSub)
	}
	return oe
}

// TestGateQueueFullSheds fills the slot and the queue; the next arrival must
// be shed immediately with the typed overload error, and a release must hand
// the slot to the queued arrival.
func TestGateQueueFullSheds(t *testing.T) {
	ob := obs.NewObserver(obs.ObserverConfig{})
	g := NewGate(GateConfig{
		MaxInFlight: 1, MaxQueue: 1,
		MaxQueueWait: 5 * time.Second,
		Observer:     ob,
	})
	ctx := context.Background()

	release, err := g.Admit(ctx)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}

	queuedIn := make(chan func(), 1)
	go func() {
		r, err := g.Admit(ctx)
		if err != nil {
			t.Errorf("queued admit shed: %v", err)
			queuedIn <- nil
			return
		}
		queuedIn <- r
	}()
	// Wait until the second arrival is parked in the queue (visible through
	// the gate's queue-depth gauge) so the third arrival sheds, rather than
	// racing it for the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for counterWith(ob, "ccp_admission_queued", "") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = g.Admit(ctx)
	oe := wantOverload(t, err, "queue full")
	if oe.Queued < 1 {
		t.Fatalf("overload snapshot reports %d queued, want >= 1", oe.Queued)
	}

	release()
	select {
	case r := <-queuedIn:
		if r == nil {
			t.Fatal("queued arrival was shed instead of inheriting the freed slot")
		}
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("freed slot never reached the queued arrival")
	}
}

// TestGateQueueWaitSheds bounds how long an arrival waits: with the only
// slot held, a queued arrival must be shed once MaxQueueWait elapses.
func TestGateQueueWaitSheds(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxQueue: 4, MaxQueueWait: 10 * time.Millisecond})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer release()
	_, err = g.Admit(context.Background())
	wantOverload(t, err, "queue wait")
}

// TestGateCtxCancelWhileQueued: a caller abandoning the wait is shed, not
// left holding queue state.
func TestGateCtxCancelWhileQueued(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxQueue: 4, MaxQueueWait: time.Minute})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = g.Admit(ctx)
	wantOverload(t, err, "caller gave up")
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled admit did not return promptly")
	}
}

// TestGateReleaseIsIdempotent: double-calling a release func must not mint a
// second free slot.
func TestGateReleaseIsIdempotent(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: 5 * time.Millisecond})
	ctx := context.Background()
	release, err := g.Admit(ctx)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	release()
	release()
	r2, err := g.Admit(ctx)
	if err != nil {
		t.Fatalf("admit after double release: %v", err)
	}
	defer r2()
	// Exactly one slot exists: with r2 holding it, the next arrival times out.
	_, err = g.Admit(ctx)
	wantOverload(t, err, "queue wait")
}

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
