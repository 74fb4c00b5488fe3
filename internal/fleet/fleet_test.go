package fleet_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/fleet"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// manualCheckpoint keeps the WAL tail intact until a test truncates it on
// purpose with Site.Checkpoint.
var manualCheckpoint = store.Options{NoSync: true, CheckpointEvery: -1, CheckpointBytes: -1}

// testCluster is a durable leader site served over real loopback TCP.
type testCluster struct {
	g      *graph.Graph
	nodes  int
	leader *dist.Site
	srv    *dist.Server
	addr   string
}

func newCluster(t *testing.T, nodes int, seed int64, opts store.Options) *testCluster {
	t.Helper()
	g := gen.Random(nodes, 3*nodes, seed)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatalf("partitioning: %v", err)
	}
	leader, err := dist.OpenDurableSite(t.TempDir(),
		func() (*partition.Partition, error) { return pi.Parts[0].Snapshot(), nil },
		2, opts)
	if err != nil {
		t.Fatalf("opening durable leader: %v", err)
	}
	t.Cleanup(func() { leader.CloseStore() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := dist.NewServer(leader, dist.ServerConfig{})
	go srv.Serve(ln)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	})
	return &testCluster{g: g, nodes: nodes, leader: leader, srv: srv, addr: ln.Addr().String()}
}

// stakeFor draws an update owned by the leader's partition (the first
// contiguous half of the id space).
func stakeFor(rng *rand.Rand, nodes int) dist.StakeUpdate {
	owner := graph.NodeID(rng.Intn(nodes / 2))
	owned := graph.NodeID(rng.Intn(nodes))
	for owned == owner {
		owned = graph.NodeID(rng.Intn(nodes))
	}
	return dist.StakeUpdate{Owner: owner, Owned: owned, Weight: 0.05 + 0.3*rng.Float64()}
}

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

func waitConverged(t *testing.T, f *fleet.Follower, target uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := f.WaitForSeq(ctx, target); err != nil {
		applied, leaderSeq := f.Lag()
		t.Fatalf("follower never reached seq %d (applied %d, leader head %d): %v",
			target, applied, leaderSeq, err)
	}
}

// TestFollowerBootstrapRacesLiveAppends commits a write burst concurrently
// with the follower's snapshot bootstrap: whatever interleaving the race
// picks, the tail the follower pulls after seeding from the image must land
// it on exactly the leader's state (epoch identity is the contract replica
// reads rely on).
func TestFollowerBootstrapRacesLiveAppends(t *testing.T) {
	const nodes = 400
	tc := newCluster(t, nodes, 11, store.Options{NoSync: true})
	ctx := context.Background()

	const updates = 400
	writerDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < updates; i++ {
			if _, err := tc.leader.ApplyEdgeUpdate(stakeFor(rng, nodes)); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	f, err := fleet.StartFollower(ctx, tc.addr, fleet.FollowerConfig{
		PullWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("starting follower mid-burst: %v", err)
	}
	defer f.Close()
	if err := <-writerDone; err != nil {
		t.Fatalf("write burst: %v", err)
	}

	waitConverged(t, f, tc.leader.LeaderSeq())
	if fe, le := f.Site().Epoch(), tc.leader.Epoch(); fe != le {
		t.Fatalf("follower epoch %d != leader epoch %d after convergence", fe, le)
	}

	// The converged replica must answer exactly like the leader.
	lc := &dist.LocalClient{Site: tc.leader}
	fc := &dist.LocalClient{Site: f.Site()}
	qrng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		q := control.Query{S: graph.NodeID(qrng.Intn(nodes)), T: graph.NodeID(qrng.Intn(nodes))}
		want, _, err := lc.Evaluate(ctx, q, dist.EvalOptions{ForcePartial: true})
		if err != nil {
			t.Fatalf("leader eval %v: %v", q, err)
		}
		got, _, err := fc.Evaluate(ctx, q, dist.EvalOptions{ForcePartial: true})
		if err != nil {
			t.Fatalf("follower eval %v: %v", q, err)
		}
		if got.Ans != want.Ans {
			t.Fatalf("%v: follower answered %v, leader %v", q, got.Ans, want.Ans)
		}
		want.Release()
		got.Release()
	}
}

// TestLeaderTruncationForcesRebootstrap takes the leader's server away,
// commits a burst the follower never sees, and checkpoints so the WAL
// records the follower needs are deleted. When the leader comes back, the
// follower's pull must come back "truncated" and trigger a fresh snapshot
// bootstrap — converging again instead of erroring out, and without cutting
// the connections of the clients reading from it.
func TestLeaderTruncationForcesRebootstrap(t *testing.T) {
	const nodes = 400
	tc := newCluster(t, nodes, 17, manualCheckpoint)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))

	for i := 0; i < 10; i++ {
		if _, err := tc.leader.ApplyEdgeUpdate(stakeFor(rng, nodes)); err != nil {
			t.Fatalf("seeding updates: %v", err)
		}
	}
	ob := obs.NewObserver(obs.ObserverConfig{})
	f, err := fleet.StartFollower(ctx, tc.addr, fleet.FollowerConfig{
		Listen:        "127.0.0.1:0",
		Observer:      ob,
		PullWait:      10 * time.Millisecond,
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	defer f.Close()
	waitConverged(t, f, tc.leader.LeaderSeq())
	reader, err := dist.Dial(ctx, f.Addr())
	if err != nil {
		t.Fatalf("dialing follower: %v", err)
	}
	defer reader.Close()
	read := func() uint64 {
		t.Helper()
		pa, _, err := reader.Evaluate(ctx, control.Query{S: 1, T: 2}, dist.EvalOptions{ForcePartial: true})
		if err != nil {
			t.Fatalf("reading from the follower: %v", err)
		}
		pa.Release()
		return pa.Epoch
	}
	read()

	// Leader outage: the server goes away, the site and its WAL live on.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	tc.srv.Shutdown(sctx)
	cancel()

	// Two checkpoints around a write burst: retention keeps the newest
	// checkpoint plus its predecessor and drops the WAL segments the
	// predecessor covers, so the second checkpoint is what actually deletes
	// the records between the follower's position and the first.
	for ck := 0; ck < 2; ck++ {
		for i := 0; i < 100; i++ {
			if _, err := tc.leader.ApplyEdgeUpdate(stakeFor(rng, nodes)); err != nil {
				t.Fatalf("burst during outage: %v", err)
			}
		}
		if err := tc.leader.Checkpoint(); err != nil {
			t.Fatalf("forcing checkpoint %d: %v", ck, err)
		}
	}

	ln, err := net.Listen("tcp", tc.addr)
	if err != nil {
		t.Fatalf("rebinding leader address: %v", err)
	}
	srv2 := dist.NewServer(tc.leader, dist.ServerConfig{})
	go srv2.Serve(ln)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(sctx)
	}()

	waitConverged(t, f, tc.leader.LeaderSeq())
	if fe, le := f.Site().Epoch(), tc.leader.Epoch(); fe != le {
		t.Fatalf("follower epoch %d != leader epoch %d after re-bootstrap", fe, le)
	}
	if n := counterWith(ob, "ccp_fleet_truncations_total", ""); n < 1 {
		t.Fatalf("no truncated pull was recorded (got %v) — the follower converged without exercising the fallback", n)
	}
	if n := counterWith(ob, "ccp_fleet_bootstraps_total", ""); n < 2 {
		t.Fatalf("expected a second (truncation-forced) bootstrap, counted %v", n)
	}
	// The re-bootstrap swapped the replica behind the same server: the
	// reader's connection carries on and sees the new replica.
	if e := read(); e != tc.leader.Epoch() {
		t.Fatalf("reader saw epoch %d after re-bootstrap, leader is at %d", e, tc.leader.Epoch())
	}
	if h := reader.Health(); h.Redials != 0 {
		t.Fatalf("reader redialed %d times across the re-bootstrap, want 0", h.Redials)
	}
}

// TestStaleFollowerReadFallsBackToLeader freezes a replica at a pre-write
// state and routes a read through the replica set after a write: epoch
// revalidation must catch the follower's stale answer and re-issue the query
// to the leader.
func TestStaleFollowerReadFallsBackToLeader(t *testing.T) {
	const nodes = 400
	g := gen.Random(nodes, 3*nodes, 29)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatalf("partitioning: %v", err)
	}
	leader, err := dist.OpenDurableSite(t.TempDir(),
		func() (*partition.Partition, error) { return pi.Parts[0].Snapshot(), nil },
		2, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("opening durable leader: %v", err)
	}
	defer leader.CloseStore()

	// A replica frozen before the write: same image, same epoch, no
	// replication loop to catch it up. A replicated mark at the leader's
	// epoch moves the replica's epoch there.
	replica := dist.NewSite(pi.Parts[0].Snapshot(), 2)
	replica.SetReadOnly(true)
	seedEpoch := func() {
		t.Helper()
		if e := leader.Epoch(); e > 0 {
			if _, err := replica.Apply(store.Record{Kind: store.KindMark, Seq: e}); err != nil {
				t.Fatalf("seeding the replica epoch: %v", err)
			}
		}
	}
	seedEpoch()

	ob := obs.NewObserver(obs.ObserverConfig{})
	rs := fleet.NewReplicaSet(
		&dist.LocalClient{Site: leader},
		[]dist.SiteClient{&dist.LocalClient{Site: replica}},
		fleet.ReplicaSetConfig{Observer: ob})

	ctx := context.Background()
	res, err := rs.Apply(ctx, store.Record{Kind: store.KindStake, Owner: 1, Owned: 2, Weight: 0.4})
	if err != nil || !res.Stored || res.Seq == 0 {
		t.Fatalf("write through the set did not commit durably: %+v, %v", res, err)
	}

	pa, _, err := rs.Evaluate(ctx, control.Query{S: 1, T: 2}, dist.EvalOptions{ForcePartial: true})
	if err != nil {
		t.Fatalf("read through the set: %v", err)
	}
	if pa.Epoch < res.Seq {
		t.Fatalf("answer epoch %d is below the write watermark %d — the stale replica's answer leaked through",
			pa.Epoch, res.Seq)
	}
	pa.Release()
	if n := counterWith(ob, "ccp_replica_stale_reads_total", ""); n != 1 {
		t.Fatalf("stale re-issues counted %v, want 1", n)
	}
	if n := counterWith(ob, "ccp_replica_reads_total", `role="leader"`); n != 1 {
		t.Fatalf("leader reads counted %v, want 1", n)
	}
	if n := counterWith(ob, "ccp_replica_reads_total", `role="follower"`); n != 0 {
		t.Fatalf("follower reads counted %v, want 0 (its only answer was stale)", n)
	}

	// Once the replica's epoch catches up to the watermark, reads return to
	// it — staleness routing is per-answer, not a permanent demotion.
	seedEpoch()
	pa, _, err = rs.Evaluate(ctx, control.Query{S: 1, T: 2}, dist.EvalOptions{ForcePartial: true})
	if err != nil {
		t.Fatalf("read after catch-up: %v", err)
	}
	pa.Release()
	if n := counterWith(ob, "ccp_replica_reads_total", `role="follower"`); n != 1 {
		t.Fatalf("follower reads counted %v after catch-up, want 1", n)
	}
}

// TestReplicaSetRoutesAroundDyingFollower kills the follower mid-load (over
// real TCP, with the race detector watching) and requires zero failed
// queries: circuit breaking plus leader fallback must absorb the loss.
func TestReplicaSetRoutesAroundDyingFollower(t *testing.T) {
	const nodes = 400
	tc := newCluster(t, nodes, 41, store.Options{NoSync: true})
	ctx := context.Background()

	f, err := fleet.StartFollower(ctx, tc.addr, fleet.FollowerConfig{
		Listen:   "127.0.0.1:0",
		PullWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	lc, err := dist.Dial(ctx, tc.addr)
	if err != nil {
		t.Fatalf("dialing leader: %v", err)
	}
	fc, err := dist.Dial(ctx, f.Addr())
	if err != nil {
		t.Fatalf("dialing follower: %v", err)
	}
	rs := fleet.NewReplicaSet(lc, []dist.SiteClient{fc}, fleet.ReplicaSetConfig{})
	defer rs.Close()

	qrng := rand.New(rand.NewSource(53))
	const drivers, perDriver = 4, 40
	qs := make([]control.Query, drivers*perDriver)
	for i := range qs {
		qs[i] = control.Query{S: graph.NodeID(qrng.Intn(nodes)), T: graph.NodeID(qrng.Intn(nodes))}
	}

	var done atomic.Int64
	errs := make(chan error, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < perDriver; i++ {
				pa, _, err := rs.Evaluate(ctx, qs[d*perDriver+i], dist.EvalOptions{ForcePartial: true})
				if err != nil {
					errs <- err
					return
				}
				pa.Release()
				done.Add(1)
			}
		}(d)
	}

	// Kill the follower once the load is demonstrably flowing.
	deadline := time.Now().Add(10 * time.Second)
	for done.Load() < drivers*perDriver/4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	f.Close()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("a query failed while the follower died (want zero failures): %v", err)
	}

	// The set keeps serving with the follower gone for good.
	for i := 0; i < 5; i++ {
		pa, _, err := rs.Evaluate(ctx, qs[i], dist.EvalOptions{ForcePartial: true})
		if err != nil {
			t.Fatalf("query %d failed after the follower's death: %v", i, err)
		}
		pa.Release()
	}
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
	g := fleet.NewGate(fleet.GateConfig{
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
	g := fleet.NewGate(fleet.GateConfig{MaxInFlight: 1, MaxQueue: 4, MaxQueueWait: 10 * time.Millisecond})
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
	g := fleet.NewGate(fleet.GateConfig{MaxInFlight: 1, MaxQueue: 4, MaxQueueWait: time.Minute})
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
	g := fleet.NewGate(fleet.GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: 5 * time.Millisecond})
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
