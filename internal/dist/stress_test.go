package dist

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// TestConcurrentBatchMixedTransports hammers a mixed cluster — one in-process
// site and one TCP site sharing a multiplexed connection — with overlapping
// AnswerBatch and Answer calls while stake updates move epochs and the
// coordinator cache revalidates. Run under -race it proves the batch
// scheduler, the connection multiplexing and the coordinator's copies; the final
// quiescent sweep proves no update was lost.
func TestConcurrentBatchMixedTransports(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 800, AvgOutDegree: 2, Seed: 29})
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	clients := []SiteClient{
		&LocalClient{Site: NewSite(pi.Parts[0], 2), MeasureBytes: true},
		startTCPSite(t, pi.Parts[1]),
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 2, Concurrency: 4})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	mirror := g.Clone()
	var mirrorMu sync.Mutex

	var wg sync.WaitGroup
	// Batch callers: concurrent batches through the scheduler.
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + b)))
			for round := 0; round < 3; round++ {
				qs := make([]control.Query, 8)
				for i := range qs {
					qs[i] = control.Query{
						S: graph.NodeID(rng.Intn(800)),
						T: graph.NodeID(rng.Intn(800)),
					}
				}
				if _, _, err := coord.AnswerBatch(context.Background(), qs); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
			}
		}(b)
	}
	// A single-query caller interleaved with the batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(400))
		for i := 0; i < 10; i++ {
			q := control.Query{S: graph.NodeID(rng.Intn(800)), T: graph.NodeID(rng.Intn(800))}
			if _, _, err := coord.Answer(context.Background(), q); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	// Writers moving both sites' epochs under the cache: owners live at the
	// local site, owned companies at the TCP site, so every stake crosses.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < 6; i++ {
				owner := graph.NodeID(w*10 + i)
				owned := graph.NodeID(400 + rng.Intn(400))
				if owner == owned {
					continue
				}
				mirrorMu.Lock()
				if mirror.InSum(owned) > 0.85 || mirror.HasEdge(owner, owned) {
					mirrorMu.Unlock()
					continue
				}
				if err := mirror.AddEdge(owner, owned, 0.1); err != nil {
					mirrorMu.Unlock()
					continue
				}
				mirrorMu.Unlock()
				if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: owner, Owned: owned, Weight: 0.1}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	// A precomputer racing with everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := coord.PrecomputeAll(context.Background()); err != nil {
				t.Errorf("precompute: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: one concurrent batch must agree with the mirror everywhere.
	rng := rand.New(rand.NewSource(888))
	qs := make([]control.Query, 24)
	for i := range qs {
		qs[i] = control.Query{S: graph.NodeID(rng.Intn(800)), T: graph.NodeID(rng.Intn(800))}
	}
	got, _, err := coord.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := control.CBE(mirror, q); got[i] != want {
			t.Fatalf("%v after quiescence: got %v, want %v", q, got[i], want)
		}
	}
}

// TestAnswerBatchConcurrentStress drives the sharded batch path hard: a
// 4-site cluster answers merge-path batches (UseCache + ForcePartial) at
// concurrency 8 with stake updates streamed in between rounds, and a final
// round races updates against the batch itself. Every deterministic round
// must agree with a serial coordinator over the same data and with the
// centralized evaluation, and the aggregate metrics must conserve counts —
// nothing lost to concurrent accumulation. Run under -race by check.sh.
func TestAnswerBatchConcurrentStress(t *testing.T) {
	eu := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: 900, InterconnectRate: 0.01, Seed: 77})
	g := eu.G
	mirror := g.Clone()
	conc := batchCluster(t, g, Options{UseCache: true, ForcePartial: true, Workers: 2, Concurrency: 8})
	serial := batchCluster(t, g, Options{UseCache: true, ForcePartial: true, Workers: 1, Concurrency: 1})
	qs := batchQueries(g, 40, 13)

	// pickUpdate finds the next stake the ownership budget allows, starting
	// the owned-company scan at a moving offset so rounds touch different
	// sites.
	next := graph.NodeID(g.Cap() / 3)
	pickUpdate := func(owner graph.NodeID) StakeUpdate {
		up := StakeUpdate{Owner: owner, Owned: next, Weight: 0.04}
		for mirror.InSum(up.Owned) > 0.9 || mirror.HasEdge(up.Owner, up.Owned) || !mirror.Alive(up.Owned) || up.Owned == up.Owner {
			up.Owned = (up.Owned + 1) % graph.NodeID(g.Cap())
		}
		next = (up.Owned + graph.NodeID(g.Cap()/5)) % graph.NodeID(g.Cap())
		return up
	}
	applyEverywhere := func(up StakeUpdate) {
		t.Helper()
		if err := mirror.MergeEdge(up.Owner, up.Owned, up.Weight); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Coordinator{conc, serial} {
			if err := c.ApplyUpdate(context.Background(), up); err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 3; round++ {
		if round > 0 {
			applyEverywhere(pickUpdate(graph.NodeID(round)))
		}
		gotC, mc, err := conc.AnswerBatch(context.Background(), qs)
		if err != nil {
			t.Fatalf("round %d concurrent: %v", round, err)
		}
		gotS, _, err := serial.AnswerBatch(context.Background(), qs)
		if err != nil {
			t.Fatalf("round %d serial: %v", round, err)
		}
		for i := range qs {
			if gotC[i] != gotS[i] {
				t.Fatalf("round %d query %d (%v): concurrent=%v serial=%v",
					round, i, qs[i], gotC[i], gotS[i])
			}
			if cbe := control.CBE(mirror, qs[i]); gotC[i] != cbe {
				t.Fatalf("round %d query %d (%v): batch=%v centralized=%v",
					round, i, qs[i], gotC[i], cbe)
			}
		}
		// Conservation: every query contacts every site and reaches the
		// merge path (ForcePartial) — counts lost to racing workers would
		// break these identities.
		if mc.SitesQueried != 4*len(qs) {
			t.Fatalf("round %d: SitesQueried = %d, want %d", round, mc.SitesQueried, 4*len(qs))
		}
		if mc.MergedQueries != len(qs) {
			t.Fatalf("round %d: MergedQueries = %d, want %d", round, mc.MergedQueries, len(qs))
		}
	}

	// Final round: updates race the batch. Answers are allowed to move with
	// the data; the run must stay error-free (the race detector watches the
	// per-site copies and the pooled scratch).
	ups := make([]StakeUpdate, 4)
	for i := range ups {
		ups[i] = pickUpdate(graph.NodeID(10 + i))
	}
	done := make(chan error, 1)
	go func() {
		for _, up := range ups {
			if err := conc.ApplyUpdate(context.Background(), up); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if _, _, err := conc.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatalf("racing batch: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("racing update: %v", err)
	}
}

// TestConcurrentQueriesAndUpdates hammers a cluster with parallel queries,
// updates and precomputations. Run under -race it proves the site locking;
// the final quiescent check proves no update was lost.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	g := gen.ScaleFree(gen.ScaleFreeConfig{Nodes: 800, AvgOutDegree: 2, Seed: 17})
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*Site, 2)
	clients := make([]SiteClient, 2)
	for i, p := range pi.Parts {
		sites[i] = NewSite(p, 2)
		clients[i] = &LocalClient{Site: sites[i]}
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 2})

	mirror := g.Clone()
	var mirrorMu sync.Mutex

	var wg sync.WaitGroup
	// Writers: each adds a few stakes from a disjoint owner range so the
	// mirror can track them deterministically.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 8; i++ {
				owner := graph.NodeID(w*10 + i)
				owned := graph.NodeID(400 + rng.Intn(400))
				if owner == owned {
					continue
				}
				mirrorMu.Lock()
				// Keep the ownership invariant: skip if no budget.
				if mirror.InSum(owned) > 0.85 || mirror.HasEdge(owner, owned) {
					mirrorMu.Unlock()
					continue
				}
				if err := mirror.AddEdge(owner, owned, 0.1); err != nil {
					mirrorMu.Unlock()
					continue
				}
				mirrorMu.Unlock()
				if err := coord.ApplyUpdate(context.Background(), StakeUpdate{Owner: owner, Owned: owned, Weight: 0.1}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers: random queries; answers may reflect any prefix of the
	// concurrent updates, so only errors are checked here.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < 12; i++ {
				q := control.Query{
					S: graph.NodeID(rng.Intn(800)),
					T: graph.NodeID(rng.Intn(800)),
				}
				if _, _, err := coord.Answer(context.Background(), q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(r)
	}
	// A precomputer racing with everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := coord.PrecomputeAll(context.Background()); err != nil {
				t.Errorf("precompute: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Quiescent: the cluster must now agree with the mirror everywhere.
	rng := rand.New(rand.NewSource(999))
	for i := 0; i < 30; i++ {
		q := control.Query{S: graph.NodeID(rng.Intn(800)), T: graph.NodeID(rng.Intn(800))}
		want := control.CBE(mirror, q)
		got, _, err := coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v after quiescence: got %v, want %v", q, got, want)
		}
	}
}
