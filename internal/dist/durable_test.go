package dist

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// durableSeed returns a deterministic seed function for one shard of a
// 2-way hash partitioning of a small random graph.
func durableSeed(seed int64, nodes, part int) func() (*partition.Partition, error) {
	return func() (*partition.Partition, error) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nodes)
		for i := 0; i < 2*nodes; i++ {
			u := graph.NodeID(rng.Intn(nodes))
			v := graph.NodeID(rng.Intn(nodes))
			if u == v {
				continue
			}
			g.MergeEdge(u, v, 0.05+0.3*rng.Float64())
		}
		pi, err := partition.ByHash(g, 2)
		if err != nil {
			return nil, err
		}
		return pi.Parts[part], nil
	}
}

// randomStake draws an update whose owner is a member of shard `part` of a
// 2-way hash partitioning over `nodes` ids.
func randomStake(rng *rand.Rand, nodes, part int) StakeUpdate {
	owner := graph.NodeID(rng.Intn(nodes/2)*2 + part)
	owned := graph.NodeID(rng.Intn(nodes))
	for owned == owner {
		owned = graph.NodeID(rng.Intn(nodes))
	}
	return StakeUpdate{
		Owner:  owner,
		Owned:  owned,
		Weight: 0.05 + 0.3*rng.Float64(),
		Remove: rng.Intn(6) == 0,
	}
}

func sameSiteState(t *testing.T, seedTag string, want, got *partition.Partition) {
	t.Helper()
	if !graph.Equal(want.Local, got.Local, 1e-12) {
		t.Fatalf("%s: recovered graph differs (%d/%d nodes/edges vs %d/%d)", seedTag,
			got.Local.NumNodes(), got.Local.NumEdges(), want.Local.NumNodes(), want.Local.NumEdges())
	}
	for _, s := range []struct {
		name      string
		want, got graph.NodeSet
	}{
		{"Members", want.Members, got.Members},
		{"Virtual", want.Virtual, got.Virtual},
		{"InNodes", want.InNodes, got.InNodes},
	} {
		if len(s.want) != len(s.got) {
			t.Fatalf("%s: %s differs: %d vs %d", seedTag, s.name, len(s.got), len(s.want))
		}
		for v := range s.want {
			if !s.got.Has(v) {
				t.Fatalf("%s: %s missing %d", seedTag, s.name, v)
			}
		}
	}
	if !maps.EqualFunc(want.CrossIn, got.CrossIn, maps.Equal) {
		t.Fatalf("%s: foreign owners %v, want %v", seedTag, got.CrossIn, want.CrossIn)
	}
}

// randomRecord draws one stake record for the site of shard 0 of a 2-way
// hash partitioning over nodes ids (it stores the even ids): mostly stakes
// of its members (divesting a missing stake is a no-op), then foreign
// owners' stakes in its members (the owned half; recording an owner twice
// or removing one never recorded is a no-op), stakes between two foreign
// companies (not the site's), clamping stakes (every repeat is a no-op),
// and records Apply must reject — among them a stake to a fresh foreign
// company, which must not leave a virtual stub behind, and the retired
// record kinds 2 and 3. valid is false for the rejected ones.
func randomRecord(rng *rand.Rand, nodes int) (rec store.Record, valid bool) {
	foreign := func() int32 { return int32(2*rng.Intn(nodes/2) + 1) }
	switch r := rng.Intn(20); {
	case r < 4:
		return store.Record{Kind: store.KindStake, Owner: foreign(), Owned: int32(2 * rng.Intn(nodes/2)),
			Weight: 0.1, Remove: rng.Intn(3) == 0}, true
	case r < 5:
		return store.Record{Kind: store.KindStake, Owner: 1, Owned: 3, Weight: 0.2, Remove: rng.Intn(2) == 0}, true
	case r < 6:
		return store.Record{Kind: store.KindStake, Owner: 0, Owned: int32(2 + 2*rng.Intn(2)), Weight: 1}, true
	case r < 8:
		fresh := int32(nodes + 1 + 2*rng.Intn(4))
		return []store.Record{
			{Kind: store.KindStake, Owner: 0, Owned: fresh, Weight: 1.5},
			{Kind: store.KindStake, Owner: 0, Owned: fresh, Weight: math.NaN()},
			{Kind: store.KindStake, Owner: 0, Owned: -1, Weight: 0.2},
			{Kind: store.KindStake, Owner: 2, Owned: 2, Weight: 0.3},
			{Kind: 2, Owned: 2},
			{Kind: 3},
			{Kind: 9, Owner: 1, Owned: 2, Weight: 0.1},
		}[rng.Intn(7)], false
	}
	return randomStake(rng, nodes, 0).record(), true
}

// partBytes serializes the site's partition — the state a recovered site
// must reproduce byte for byte.
func partBytes(t *testing.T, s *Site) []byte {
	t.Helper()
	var buf bytes.Buffer
	s.mu.RLock()
	err := s.part.WriteBinary(&buf)
	s.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsSite requires c, recovered from disk, to hold exactly the original
// site's partition bytes and epoch.
func sameAsSite(t *testing.T, tag string, orig, c *Site) {
	t.Helper()
	if !bytes.Equal(partBytes(t, orig), partBytes(t, c)) {
		t.Fatalf("%s: partition bytes differ from the original's", tag)
	}
	if c.Epoch() != orig.Epoch() {
		t.Fatalf("%s: epoch %d, want the original's %d", tag, c.Epoch(), orig.Epoch())
	}
}

// TestDurableSiteRestartEquivalence is the differential for the one write
// path. Each seed drives a durable site through a random stream of stake
// records (its members' stakes, foreign owners' stakes in its members,
// no-ops, rejected records); every change must be logged and move the epoch
// to its WAL seq, and nothing else may do either. Then the site
// is killed and recovered from disk — with and without an intervening
// checkpoint — and the recovered site must equal both the original and an
// in-memory twin that applied the same updates straight through the
// partition methods.
func TestDurableSiteRestartEquivalence(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 50
	}
	const nodes = 16
	for seed := 0; seed < seeds; seed++ {
		seedTag := fmt.Sprintf("seed %d", seed)
		dir := t.TempDir()
		seedFn := durableSeed(int64(seed), nodes, 0)
		s, err := OpenDurableSite(dir, seedFn, 1, store.Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: OpenDurableSite: %v", seedTag, err)
		}
		twin, err := seedFn()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed) * 31))
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			rec, valid := randomRecord(rng, nodes)
			before, epoch, logged := partBytes(t, s), s.Epoch(), s.store.AppendedSeq()
			res, err := s.Apply(rec)
			if err == nil && res.Changed && (s.store.AppendedSeq() != logged+1 || s.Epoch() != logged+1) {
				t.Fatalf("%s: %+v moved the epoch to %d and the log to %d, want both at %d",
					seedTag, rec, s.Epoch(), s.store.AppendedSeq(), logged+1)
			}
			if !res.Changed && (s.store.AppendedSeq() != logged || s.Epoch() != epoch) {
				t.Fatalf("%s: unchanging %+v moved the epoch to %d or the log to %d", seedTag, rec, s.Epoch(), s.store.AppendedSeq())
			}
			switch {
			case !valid && err == nil:
				t.Fatalf("%s: Apply accepted %+v", seedTag, rec)
			case !valid:
				if !bytes.Equal(before, partBytes(t, s)) || s.Epoch() != epoch {
					t.Fatalf("%s: rejected %+v changed the site", seedTag, rec)
				}
			case err != nil:
				t.Fatalf("%s: Apply %+v: %v", seedTag, rec, err)
			default:
				if _, err := twin.ApplyStake(graph.NodeID(rec.Owner), graph.NodeID(rec.Owned), rec.Weight, rec.Remove); err != nil {
					t.Fatalf("%s: twin ApplyStake: %v", seedTag, err)
				}
			}
			if i == n/2 && seed%3 == 0 {
				if err := s.store.Checkpoint(); err != nil {
					t.Fatalf("%s: Checkpoint: %v", seedTag, err)
				}
			}
		}
		if err := s.store.Kill(); err != nil {
			t.Fatalf("%s: Kill: %v", seedTag, err)
		}

		r, err := OpenDurableSite(dir, seedFn, 1, store.Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: recovery: %v", seedTag, err)
		}
		sameAsSite(t, seedTag+": recovered site", s, r)
		sameSiteState(t, seedTag, twin, r.part)
		if err := r.CloseStore(); err != nil {
			t.Fatalf("%s: CloseStore: %v", seedTag, err)
		}
	}
}

// TestNoOpUpdateKeepsEpoch is the regression test for the epoch-churn bug:
// re-adding an identical edge, or divesting a stake that does not exist,
// must not move the epoch or drop the cached partial answer.
func TestNoOpUpdateKeepsEpoch(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			var s *Site
			if durable {
				var err error
				s, err = OpenDurableSite(t.TempDir(), durableSeed(3, 8, 0), 1, store.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.CloseStore()
			} else {
				p, err := durableSeed(3, 8, 0)()
				if err != nil {
					t.Fatal(err)
				}
				s = NewSite(p, 1)
			}
			// The site is shard 0 of a hash split: it stores the even ids, so
			// a query between odd ones is served from its cache.
			cachedPartial := func() *graph.Graph {
				t.Helper()
				pa, err := s.Evaluate(context.Background(), control.Query{S: 1, T: 3}, EvalOptions{UseCache: true})
				if err != nil || !pa.FromCache || pa.Reduced == nil {
					t.Fatalf("cached evaluation: %+v, %v", pa, err)
				}
				return pa.Reduced
			}
			// Drive the stake to the clamp: labels merge additively and cap
			// at 1, so the third merge below is a true no-op.
			up := StakeUpdate{Owner: 0, Owned: 5, Weight: 0.8}
			res, err := s.ApplyEdgeUpdate(up)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stored || !res.Changed {
				t.Fatalf("first apply: %+v", res)
			}
			// Second merge: clamps to 1 (or already was 1 if the seed graph
			// had a heavy edge here — either way the label is now pinned).
			if _, err = s.ApplyEdgeUpdate(up); err != nil {
				t.Fatal(err)
			}
			epoch := s.Epoch()
			cached := cachedPartial()

			// Merging into an already-clamped label changes nothing.
			res, err = s.ApplyEdgeUpdate(up)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stored || res.Changed {
				t.Fatalf("no-op merge: %+v", res)
			}
			// Divesting a stake that was never there: also a no-op.
			res, err = s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 7, Remove: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stored || res.Changed {
				t.Fatalf("no-op divest: %+v", res)
			}
			// A rejected stake to a fresh foreign company changes nothing
			// either: no virtual stub, no byte of the partition.
			before := partBytes(t, s)
			if _, err = s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 9, Weight: 1.5}); err == nil {
				t.Fatal("weight 1.5 accepted")
			}
			if !bytes.Equal(before, partBytes(t, s)) || s.part.Virtual.Has(9) {
				t.Fatal("rejected stake changed the partition")
			}
			if got := s.Epoch(); got != epoch {
				t.Fatalf("epoch moved %d -> %d on no-op or rejected updates", epoch, got)
			}
			if cachedPartial() != cached {
				t.Fatal("cached partial rebuilt after no-op or rejected updates")
			}

			// A real change still moves everything.
			res, err = s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 6, Weight: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed || s.Epoch() == epoch {
				t.Fatalf("effective update did not move the epoch: %+v", res)
			}
			if cachedPartial() == cached {
				t.Fatal("cached partial not rebuilt after effective update")
			}
		})
	}
}

// TestFailedAppendNeverAliasesAnEpoch is the regression test for a durable
// site whose WAL append fails. Its partition already holds that update,
// which a restart loses, and it used to number that state with the
// sequence number the reopened log then gave a different state, so a
// coordinator copy taken before the restart revalidated against the wrong
// partition. Every epoch a partial is served at must name one partition
// state, across the restart too; the failed site serves nothing.
func TestFailedAppendNeverAliasesAnEpoch(t *testing.T) {
	dir := t.TempDir()
	seed := durableSeed(7, 16, 0)
	ctx := context.Background()
	states := map[uint64][]byte{}
	// serve asks s for a partial of the whole partition and records the
	// partition bytes under the epoch it was served at; it reports whether
	// s served.
	serve := func(tag string, s *Site) bool {
		t.Helper()
		pa, err := s.Evaluate(ctx, control.Query{S: 0, T: 2}, EvalOptions{ForcePartial: true})
		if err != nil {
			return false
		}
		img := partBytes(t, s)
		if prev, ok := states[pa.Epoch]; ok && !bytes.Equal(prev, img) {
			t.Fatalf("%s: epoch %d names two partition states", tag, pa.Epoch)
		}
		states[pa.Epoch] = img
		return true
	}
	apply := func(tag string, s *Site, owned graph.NodeID) {
		t.Helper()
		if res, err := s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: owned, Weight: 0.3}); err != nil || !res.Changed {
			t.Fatalf("%s: %+v, %v", tag, res, err)
		}
	}

	s, err := OpenDurableSite(dir, seed, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	apply("first update", s, 4)
	if !serve("before the failure", s) {
		t.Fatal("the site did not serve before its log failed")
	}
	if err := s.store.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 6, Weight: 0.3}); err == nil {
		t.Fatal("an update was acknowledged without its WAL append")
	}
	if serve("after the failure", s) {
		t.Error("the site served a state its log does not hold")
	}
	if pa, err := s.Evaluate(ctx, control.Query{S: 1, T: 3},
		EvalOptions{UseCache: true, HasIfEpoch: true, IfEpoch: 1}); err == nil {
		t.Errorf("the site revalidated epoch 1 after its log failed: %+v", pa)
	}
	if _, err := s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 8, Weight: 0.3}); err == nil {
		t.Error("the site took an update after its log failed")
	}

	r, err := OpenDurableSite(dir, seed, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseStore()
	if r.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", r.Epoch())
	}
	serve("after the restart", r)
	apply("update after the restart", r, 8)
	serve("after the next update", r)
}

// epochState is the partition as it stood at one epoch: a deep copy for the
// reduction oracle and its CCPP2 bytes for the images.
type epochState struct {
	part *partition.Partition
	img  []byte
}

func encodePartition(p *partition.Partition) ([]byte, error) {
	var buf bytes.Buffer
	err := p.WriteBinary(&buf)
	return buf.Bytes(), err
}

// reduceAt is the oracle for a partial answer at one epoch: a single-worker
// reduction of a fresh copy of the partition recorded for that epoch,
// excluding its boundary plus the query's endpoints (none for the
// query-independent cache). A nil keep copies the whole partition with
// termination off, as ForcePartial does; otherwise only the nodes of keep
// are copied. A live query (opt.DisableTermination unset) is first put to
// the termination check on the whole partition, as a site does before it
// copies anything; a decided query returns its answer and no graph. With
// termination off, the answer is Unknown, as a site reports it.
func reduceAt(p *partition.Partition, q control.Query, keep graph.NodeSet, opt control.Options) (control.Answer, *graph.Graph, error) {
	live := !opt.DisableTermination
	if live {
		if a := control.CheckTermination(p.Local, q, opt.Trust); a != control.Unknown {
			return a, nil, nil
		}
	}
	var g *graph.Graph
	if keep == nil {
		g = p.Local.Clone()
	} else {
		g = p.Local.Induced(keep)
	}
	x := p.Boundary()
	if q.S != graph.None {
		x.Add(q.S)
		x.Add(q.T)
	}
	opt.Workers = 1
	res, err := control.ParallelReduction(context.Background(), g, q, x, opt)
	if !live {
		return control.Unknown, g, err
	}
	if res.Ans != control.Unknown {
		g = nil
	}
	return res.Ans, g, err
}

// TestSnapshotsNeverMixEpochs streams updates from one goroutine, which
// records the partition for every epoch, while one reader per read path
// checks that what it got is that partition at the epoch it was stamped
// with — no torn reads, no mixed epochs. The read paths are a live
// evaluation of the whole partition (ForcePartial), a live evaluation of the
// query's slice, a cached evaluation and the checkpoint source. Each
// partial must equal a single-worker
// reduction of the recorded partition's copy that path takes — all of it,
// the query's slice, or the core — with the slice and the core computed by
// the test's own two BFS (refSlice); each image must decode to the recorded
// partition. A slice read and a cache build after an update race to rebuild
// the site's reachability sets. Run under -race this also checks the read
// lock and the rebuild's lock against Apply.
func TestSnapshotsNeverMixEpochs(t *testing.T) {
	s, err := OpenDurableSite(t.TempDir(), durableSeed(11, 16, 0), 2, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseStore()

	// mu is held across each Apply and the recording of its epoch, so a
	// reader that saw an epoch finds it recorded.
	var mu sync.Mutex
	expected := map[uint64]epochState{}
	record := func(epoch uint64) {
		p := s.part.Snapshot()
		img, err := encodePartition(p)
		if err != nil {
			t.Error(err)
		}
		expected[epoch] = epochState{p, img}
	}
	record(s.Epoch())
	lookup := func(epoch uint64) (epochState, bool) {
		mu.Lock()
		defer mu.Unlock()
		st, ok := expected[epoch]
		return st, ok
	}

	// The writer keeps streaming until every reader verified enough reads,
	// so the test self-paces instead of racing a fixed count.
	paths := []string{"live", "slice", "cached", "checkpoint"}
	const wantChecks = 100
	checks := make([]atomic.Int64, len(paths))
	// sliced counts the slice reads that copied a slice rather than being
	// decided before it: those race the cache builds on the rebuild lock.
	var sliced atomic.Int64
	allChecked := func() bool {
		if sliced.Load() < wantChecks {
			return false
		}
		for i := range checks {
			if checks[i].Load() < wantChecks {
				return false
			}
		}
		return true
	}
	var failed atomic.Bool // a reader reported a failure: stop early
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(99))
		for i := 0; !allChecked() && !failed.Load() && i < 500000; i++ {
			up := randomStake(rng, 16, 0)
			mu.Lock()
			res, err := s.ApplyEdgeUpdate(up)
			if err == nil && res.Changed {
				record(s.Epoch())
			}
			mu.Unlock()
			if err != nil {
				t.Errorf("ApplyEdgeUpdate: %v", err)
				return
			}
		}
	}()

	// read performs one read through path r and checks it; it returns false
	// after reporting a failure.
	read := func(r int, rng *rand.Rand) bool {
		var (
			epoch   uint64
			partial *PartialAnswer
			q       control.Query
			img     []byte
			err     error
		)
		switch paths[r] {
		case "live":
			// Two distinct members (even ids): a live evaluation.
			a := rng.Intn(8)
			q = control.Query{S: graph.NodeID(2 * a), T: graph.NodeID(2 * ((a + 1 + rng.Intn(7)) % 8))}
			partial, err = s.Evaluate(context.Background(), q, EvalOptions{ForcePartial: true})
		case "slice":
			// A member source and any target, member or foreign: a live
			// evaluation of the query's slice, which may decide.
			q = control.Query{S: graph.NodeID(2 * rng.Intn(8)), T: graph.NodeID(rng.Intn(16))}
			for q.T == q.S {
				q.T = graph.NodeID(rng.Intn(16))
			}
			partial, err = s.Evaluate(context.Background(), q, EvalOptions{})
		case "cached":
			q = control.Query{S: graph.None, T: graph.None}
			partial, err = s.Evaluate(context.Background(), control.Query{S: 1, T: 3}, EvalOptions{UseCache: true})
		case "checkpoint":
			var p *partition.Partition
			epoch, p = s.checkpointImage()
			img, err = encodePartition(p)
		}
		if err != nil {
			t.Errorf("%s read: %v", paths[r], err)
			return false
		}
		if partial != nil {
			defer partial.Release()
			// Only a slice read may decide; an undecided partial ships a graph.
			if partial.NotModified || (partial.Reduced == nil) != (partial.Ans != control.Unknown) ||
				(partial.Reduced == nil && paths[r] != "slice") {
				t.Errorf("%s read: unexpected partial %+v", paths[r], partial)
				return false
			}
			epoch = partial.Epoch
		}
		want, ok := lookup(epoch)
		if !ok {
			t.Errorf("%s read: epoch %d was never produced", paths[r], epoch)
			return false
		}
		if partial == nil {
			if !bytes.Equal(img, want.img) {
				t.Errorf("%s read: image at seq %d differs from the partition recorded for it", paths[r], epoch)
				return false
			}
			return true
		}
		p := want.part
		var keep graph.NodeSet // the whole partition
		opt := control.Options{DisableTermination: true}
		switch paths[r] {
		case "slice":
			if partial.Reduced != nil {
				sliced.Add(1)
			}
			keep = refSlice(p, q.S, q.T)
			opt = control.Options{Trust: control.TerminationTrust{
				T1: true, T2: p.Members.Has(q.T) && !p.InNodes.Has(q.T)}}
		case "cached":
			keep = refSlice(p, graph.None, graph.None)
		}
		ans, g, err := reduceAt(p, q, keep, opt)
		if err != nil {
			t.Errorf("%s read: oracle reduction: %v", paths[r], err)
			return false
		}
		if ans != partial.Ans || (g != nil && !graph.Equal(g, partial.Reduced, 1e-9)) {
			t.Errorf("%s read: partial at epoch %d (%v) is not the reduction of that epoch's partition (%v): mixed-epoch read",
				paths[r], epoch, partial.Ans, ans)
			return false
		}
		return true
	}

	var wg sync.WaitGroup
	for r := range paths {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					if checks[r].Load() == 0 {
						t.Errorf("%s reader never checked a read", paths[r])
					}
					return
				default:
				}
				if !read(r, rng) {
					failed.Store(true)
					return
				}
				checks[r].Add(1)
			}
		}(r)
	}
	<-done
	wg.Wait()
}

// TestCoordinatorRevalidatesAcrossRestart is the end-to-end payoff of
// epoch == durable sequence number: a coordinator that cached a site's
// partial answer before the site was killed revalidates it with a cheap
// NotModified after the site recovers — no partition is ever re-shipped.
func TestCoordinatorRevalidatesAcrossRestart(t *testing.T) {
	const nodes = 400
	mk := func() (*partition.Partition, error) {
		rng := rand.New(rand.NewSource(17))
		g := graph.New(nodes)
		for i := 0; i < 3*nodes; i++ {
			u := graph.NodeID(rng.Intn(nodes))
			v := graph.NodeID(rng.Intn(nodes))
			if u != v {
				g.MergeEdge(u, v, 0.05+0.25*rng.Float64())
			}
		}
		pi, err := partition.ByContiguous(g, 3)
		if err != nil {
			return nil, err
		}
		return pi.Parts[1], nil // the middle shard: cached for s/t queries below
	}
	full := func() []*partition.Partition {
		rng := rand.New(rand.NewSource(17))
		g := graph.New(nodes)
		for i := 0; i < 3*nodes; i++ {
			u := graph.NodeID(rng.Intn(nodes))
			v := graph.NodeID(rng.Intn(nodes))
			if u != v {
				g.MergeEdge(u, v, 0.05+0.25*rng.Float64())
			}
		}
		pi, err := partition.ByContiguous(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		return pi.Parts
	}()

	dir := t.TempDir()
	durSite, err := OpenDurableSite(dir, mk, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{NewSite(full[0], 1), durSite, NewSite(full[2], 1)}
	clients := make([]SiteClient, 3)
	for i, s := range sites {
		clients[i] = &LocalClient{Site: s, MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	q := control.Query{S: 5, T: nodes - 5} // endpoints in shards 0 and 2
	want, m1, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, m2, err := coord.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if m2.CoordCacheHits != 1 {
		t.Fatalf("warm-up revalidation failed: %+v", m2)
	}

	// Apply a durable update to the cached middle site, then kill it.
	up := StakeUpdate{Owner: graph.NodeID(nodes/3 + 3), Owned: graph.NodeID(nodes/3 + 4), Weight: 0.44}
	if err := coord.ApplyUpdate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if _, m3, err := coord.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if m3.CoordCacheHits != 0 {
		t.Fatalf("stale copy served right after update: %+v", m3)
	}
	preEpoch := durSite.Epoch()
	if err := durSite.store.Kill(); err != nil {
		t.Fatal(err)
	}

	// Recover the site from disk and splice it into the same coordinator
	// slot — the coordinator itself keeps its caches.
	recovered, err := OpenDurableSite(dir, mk, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.CloseStore()
	if recovered.Epoch() != preEpoch {
		t.Fatalf("recovered epoch %d, want %d", recovered.Epoch(), preEpoch)
	}
	clients[1].(*LocalClient).Site = recovered

	got, m4, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("answer changed across restart: %v -> %v", want, got)
	}
	if m4.CoordCacheHits != 1 {
		t.Fatalf("coordinator refetched after restart (epoch vector did not survive): %+v", m4)
	}
	if m4.Bytes >= m1.Bytes {
		t.Fatalf("revalidated query shipped %dB, first shipped %dB", m4.Bytes, m1.Bytes)
	}
}

// TestRevalidationSkipsColdCache: a durable restart keeps the epoch but not
// the cache, so the first conditional fetch at that epoch finds the cache
// cold. It must answer NotModified without building it — no cache, and no
// graph.clone in its trace. The first unconditional fetch then builds it,
// and its trace shows the build: a graph.clone of exactly the core's nodes
// and a control.site_reduce.
func TestRevalidationSkipsColdCache(t *testing.T) {
	dir := t.TempDir()
	seed := durableSeed(5, 64, 0)
	s, err := OpenDurableSite(dir, seed, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		if _, err := s.ApplyEdgeUpdate(randomStake(rng, 64, 0)); err != nil {
			t.Fatal(err)
		}
	}
	epoch := s.Epoch()
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDurableSite(dir, seed, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseStore()
	if s.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", s.Epoch(), epoch)
	}

	ctx := context.Background()
	q := control.Query{S: 1, T: 3} // odd ids: members of the other shard
	spans := func(pa *PartialAnswer) (clones []int64, reduces int) {
		for _, e := range pa.Events {
			switch e.Type {
			case flight.GraphClone:
				clones = append(clones, e.A2)
			case flight.SiteReduce:
				reduces++
			}
		}
		return clones, reduces
	}
	pa, err := s.Evaluate(ctx, q, EvalOptions{UseCache: true, HasIfEpoch: true, IfEpoch: epoch, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pa.NotModified || pa.Reduced != nil || pa.Epoch != epoch {
		t.Fatalf("revalidation at the recovered epoch: %+v", pa)
	}
	if clones, reduces := spans(pa); s.cache != nil || len(clones) != 0 || reduces != 0 {
		t.Fatalf("revalidation built the cache: cache %v, clones %v, reduces %d", s.cache != nil, clones, reduces)
	}

	pa, err = s.Evaluate(ctx, q, EvalOptions{UseCache: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	core := int64(len(refSlice(s.part, graph.None, graph.None)))
	if core == 0 || core == int64(s.part.Local.NumNodes()) {
		t.Fatalf("the core has %d of %d nodes: pick a graph where it is a proper slice", core, s.part.Local.NumNodes())
	}
	clones, reduces := spans(pa)
	if !pa.FromCache || pa.Reduced == nil || s.cache == nil {
		t.Fatalf("unconditional fetch: %+v", pa)
	}
	if len(clones) != 1 || clones[0] != core || reduces != 1 {
		t.Fatalf("cache build traced clones %v (core %d nodes) and %d reduces", clones, core, reduces)
	}
}
