package fleet

// In-package so the books test can read the gate's unexported counters.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
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

// TestGateBooksBalance drives admits, releases and both kinds of shed from
// several goroutines at once. Once they are done, every arrival is counted
// as offered and exactly once as admitted or shed, and the counters agree
// with what the callers saw.
func TestGateBooksBalance(t *testing.T) {
	// One slot held longer than a queued arrival may wait, and more callers
	// than the slot and the queue hold: arrivals are admitted, shed from a
	// full queue, and shed after waiting.
	g := NewGate(GateConfig{MaxInFlight: 1, MaxQueue: 2, MaxQueueWait: time.Millisecond})
	const callers, attempts = 8, 40
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				release, err := g.Admit(context.Background())
				if err != nil {
					var oe *dist.OverloadError
					if !errors.As(err, &oe) {
						t.Errorf("shed error is %T (%v), want *dist.OverloadError", err, err)
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				time.Sleep(2 * time.Millisecond)
				release()
			}
		}()
	}
	wg.Wait()

	offered := g.met.offered.Value()
	adm, full, wait := g.met.admitted.Value(), g.met.shedFull.Value(), g.met.shedWait.Value()
	if offered != callers*attempts {
		t.Fatalf("offered %d, want %d arrivals", offered, callers*attempts)
	}
	if offered != adm+full+wait {
		t.Fatalf("offered %d != admitted %d + shed_queue_full %d + shed_queue_wait %d", offered, adm, full, wait)
	}
	if adm != admitted.Load() || full+wait != shed.Load() {
		t.Fatalf("gate counted %d admitted, %d shed; callers saw %d, %d", adm, full+wait, admitted.Load(), shed.Load())
	}
	if adm == 0 || full == 0 || wait == 0 {
		t.Fatalf("admitted %d, shed_queue_full %d, shed_queue_wait %d: want every outcome", adm, full, wait)
	}
	if q, f := g.queued.Load(), g.inflight.Load(); q != 0 || f != 0 {
		t.Fatalf("%d queued and %d in flight after every caller returned", q, f)
	}
}
