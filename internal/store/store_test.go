package store

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"ccp/internal/graph"
	"ccp/internal/partition"
)

// testPartition builds a small random partition (one of two hash shards) and
// the rng to drive updates against it.
func testPartition(t testing.TB, seed int64) (*partition.Partition, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(24)
	for i := 0; i < 40; i++ {
		u := graph.NodeID(rng.Intn(24))
		v := graph.NodeID(rng.Intn(24))
		if u == v {
			continue
		}
		g.MergeEdge(u, v, 0.05+0.3*rng.Float64())
	}
	pi, err := partition.ByHash(g, 2)
	if err != nil {
		t.Fatalf("ByHash: %v", err)
	}
	return pi.Parts[0], rng
}

// randomRecord produces a record whose ApplyStake outcome is valid on a
// 2-shard hash partitioning of 24 nodes (members of shard 0 are even ids).
func randomRecord(rng *rand.Rand) Record {
	if rng.Intn(8) == 0 {
		v := int32(rng.Intn(12) * 2)
		d := int32(1)
		if rng.Intn(3) == 0 {
			d = -1
		}
		return Record{Kind: KindCrossIn, Owned: v, Delta: d}
	}
	owner := int32(rng.Intn(12) * 2) // member of partition 0
	owned := int32(rng.Intn(24))
	for owned == owner {
		owned = int32(rng.Intn(24))
	}
	return Record{
		Kind:   KindStake,
		Owner:  owner,
		Owned:  owned,
		Weight: 0.05 + 0.3*rng.Float64(),
		Remove: rng.Intn(6) == 0,
	}
}

func applyRecord(t *testing.T, p *partition.Partition, rec Record) {
	t.Helper()
	switch rec.Kind {
	case KindStake:
		if _, err := p.ApplyStake(graph.NodeID(rec.Owner), graph.NodeID(rec.Owned), rec.Weight, rec.Remove); err != nil {
			t.Fatalf("ApplyStake(%+v): %v", rec, err)
		}
	case KindCrossIn:
		p.AdjustCrossIn(graph.NodeID(rec.Owned), int(rec.Delta))
	case KindMark:
	}
}

func samePartition(t *testing.T, want, got *partition.Partition) {
	t.Helper()
	if !graph.Equal(want.Local, got.Local, 1e-12) {
		t.Fatalf("recovered graph differs: %d/%d nodes/edges vs %d/%d",
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
			t.Fatalf("%s differs: %d vs %d", s.name, len(s.got), len(s.want))
		}
		for v := range s.want {
			if !s.got.Has(v) {
				t.Fatalf("%s missing %d", s.name, v)
			}
		}
	}
	if len(want.CrossIn) != len(got.CrossIn) {
		t.Fatalf("CrossIn size differs: %d vs %d", len(got.CrossIn), len(want.CrossIn))
	}
	for v, c := range want.CrossIn {
		if got.CrossIn[v] != c {
			t.Fatalf("CrossIn[%d] = %d, want %d", v, got.CrossIn[v], c)
		}
	}
	if want.CrossOut != got.CrossOut {
		t.Fatalf("CrossOut = %d, want %d", got.CrossOut, want.CrossOut)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		want := randomRecord(rng)
		seq := rng.Uint64()
		buf := appendFrame(nil, seq, want)
		if len(buf) != frameLen {
			t.Fatalf("frame is %d bytes, want %d", len(buf), frameLen)
		}
		got, n, err := decodeFrame(buf)
		if err != nil || n != frameLen {
			t.Fatalf("decodeFrame: n=%d err=%v", n, err)
		}
		want.Seq = seq
		if got != want {
			t.Fatalf("roundtrip: got %+v, want %+v", got, want)
		}
		// Every strict prefix is a torn frame, never misparsed.
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := decodeFrame(buf[:cut]); !errors.Is(err, errShortFrame) {
				t.Fatalf("cut at %d: err = %v, want errShortFrame", cut, err)
			}
		}
		// A flipped byte is corruption, not a short read.
		flip := append([]byte(nil), buf...)
		flip[rng.Intn(len(flip))] ^= 0x40
		if _, _, err := decodeFrame(flip); err == nil {
			// The flip may hit an ignored region only if CRC still covers it;
			// it covers everything after the length, so only a length-prefix
			// flip can decode — and then the CRC fails. No valid outcome.
			t.Fatalf("corrupt frame decoded")
		}
	}
}

func TestWALAppendCloseReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []Record
	for i := 0; i < 300; i++ {
		rec := randomRecord(rng)
		seq, err := s.Append(rec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		rec.Seq = seq
		want = append(want, rec)
	}
	if s.DurableSeq() != 300 || s.AppendedSeq() != 300 {
		t.Fatalf("durable/appended = %d/%d, want 300/300", s.DurableSeq(), s.AppendedSeq())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Append(Record{Kind: KindMark}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if base, seq := s2.Base(); base != nil || seq != 0 {
		t.Fatalf("Base = (%v, %d), want (nil, 0): no checkpoint was written", base, seq)
	}
	var got []Record
	if err := s2.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if s2.AppendedSeq() != 300 {
		t.Fatalf("AppendedSeq after reopen = %d, want 300", s2.AppendedSeq())
	}
}

// TestConcurrentAppendsSerialize: appends from many goroutines at once each
// get a unique sequence number, in order per appender, are durable when
// Append returns, each pay their own fsync, and all replay after a reopen.
func TestConcurrentAppendsSerialize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				seq, err := s.Append(randomRecord(rng))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if s.DurableSeq() < seq {
					t.Errorf("Append returned before seq %d was durable", seq)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ss := range seqs {
		for i, seq := range ss {
			if seen[seq] {
				t.Fatalf("sequence %d assigned twice", seq)
			}
			seen[seq] = true
			if i > 0 && ss[i-1] >= seq {
				t.Fatalf("per-appender sequence went backwards: %d then %d", ss[i-1], seq)
			}
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("%d unique sequences, want %d", len(seen), workers*per)
	}
	st := s.Stats()
	if st.Appends != workers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, workers*per)
	}
	if st.Fsyncs != st.Appends {
		t.Fatalf("fsyncs %d, want one per append (%d)", st.Fsyncs, st.Appends)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	n := 0
	if err := s2.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != workers*per {
		t.Fatalf("replayed %d, want %d", n, workers*per)
	}
}

// TestFsyncFailurePoisonsWAL: after an fsync fails the kernel may have
// dropped the record's pages, so the log must refuse every later append — an
// acknowledged record behind the lost one would be cut off by recovery as a
// sequence jump. fsync on a pipe fails with EINVAL every time.
func TestFsyncFailurePoisonsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	var acked []uint64
	seq, err := s.Append(randomRecord(rng))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	acked = append(acked, seq)

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	w := s.wal
	w.mu.Lock()
	seg := w.f
	w.f = pw
	w.bw.Reset(pw)
	w.mu.Unlock()
	if _, err := s.Append(randomRecord(rng)); err == nil {
		t.Fatal("Append succeeded although its fsync failed")
	}
	w.mu.Lock()
	w.f = seg
	w.bw.Reset(seg)
	w.mu.Unlock()
	if seq, err := s.Append(randomRecord(rng)); err == nil {
		t.Fatalf("Append after a failed fsync acknowledged seq %d", seq)
	}
	if got := s.DurableSeq(); got != acked[len(acked)-1] {
		t.Fatalf("DurableSeq = %d, want %d", got, acked[len(acked)-1])
	}

	s.Kill()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var replayed []uint64
	if err := s2.Replay(func(rec Record) error { replayed = append(replayed, rec.Seq); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !slices.Equal(replayed, acked) {
		t.Fatalf("replayed seqs %v, acknowledged %v", replayed, acked)
	}
}

// TestAppendsRacingCheckpoints: a checkpoint rotates the segment an append
// is syncing, so the append must sync under the same lock rotation closes
// the file under. One appender with fsync on races a Checkpoint loop; every
// append must succeed, and recovery must rebuild the live partition.
func TestAppendsRacingCheckpoints(t *testing.T) {
	dir := t.TempDir()
	live, rng := testPartition(t, 5)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var mu sync.Mutex
	var lastSeq uint64
	s.source = func() (uint64, *partition.Partition) {
		mu.Lock()
		defer mu.Unlock()
		return lastSeq, live.Snapshot()
	}
	stop := make(chan struct{})
	ckpts := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				ckpts <- n
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
			n++
		}
	}()
	const appends = 2000
	for i := 0; i < appends; i++ {
		rec := randomRecord(rng)
		mu.Lock()
		applyRecord(t, live, rec)
		seq, err := s.Append(rec)
		lastSeq = seq
		mu.Unlock()
		if err != nil {
			close(stop)
			t.Fatalf("Append %d racing checkpoints: %v", i, err)
		}
	}
	close(stop)
	t.Logf("%d appends raced %d checkpoints", appends, <-ckpts)

	s.Kill()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	base, seq := s2.Base()
	if base == nil {
		t.Fatal("no checkpoint survived")
	}
	if err := s2.Replay(func(rec Record) error {
		applyRecord(t, base, rec)
		seq = rec.Seq
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if seq != appends {
		t.Fatalf("recovered up to seq %d, want %d", seq, appends)
	}
	samePartition(t, live, base)
}

func TestCheckpointReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	live, rng := testPartition(t, 42)
	var mu sync.Mutex

	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var lastSeq uint64
	s.Start(func() (uint64, *partition.Partition) {
		mu.Lock()
		defer mu.Unlock()
		return lastSeq, live.Snapshot()
	})

	for i := 0; i < 400; i++ {
		rec := randomRecord(rng)
		mu.Lock()
		applyRecord(t, live, rec)
		seq, err := s.Append(rec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		lastSeq = seq
		mu.Unlock()
		if i == 150 || i == 300 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	st := s.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2", st.Checkpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Close wrote a final checkpoint covering everything: recovery should
	// replay nothing and still reproduce the live partition exactly.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	base, seq := s2.Base()
	if base == nil || seq != 400 {
		t.Fatalf("Base seq = %d (image %v), want 400", seq, base != nil)
	}
	replayed := 0
	if err := s2.Replay(func(rec Record) error { replayed++; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d records after a clean close, want 0", replayed)
	}
	samePartition(t, live, base)
	s2.Close()

	// Retention: at most two checkpoints and a bounded number of segments
	// survive on disk.
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatalf("listCheckpoints: %v", err)
	}
	if len(cks) > 2 {
		t.Fatalf("%d checkpoints retained, want <= 2", len(cks))
	}
}

func TestRecoveryFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	live, rng := testPartition(t, 9)
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var lastSeq uint64
	s.source = func() (uint64, *partition.Partition) { return lastSeq, live.Snapshot() }

	var recs []Record
	for i := 0; i < 200; i++ {
		rec := randomRecord(rng)
		applyRecord(t, live, rec)
		seq, err := s.Append(rec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		lastSeq = seq
		recs = append(recs, rec)
		if i == 99 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	// Simulate a kill: no Close, no final checkpoint — but flush the WAL
	// buffer the way the OS page cache would survive a process crash.
	s.wal.close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	base, seq := s2.Base()
	if base == nil || seq != 100 {
		t.Fatalf("Base seq = %d, want 100", seq)
	}
	replayed := 0
	if err := s2.Replay(func(rec Record) error {
		applyRecord(t, base, rec)
		replayed++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replayed != 100 {
		t.Fatalf("replayed %d, want 100 (the tail past the checkpoint)", replayed)
	}
	if s2.Stats().RecoveredRecords != 100 {
		t.Fatalf("RecoveredRecords = %d, want 100", s2.Stats().RecoveredRecords)
	}
	samePartition(t, live, base)
}

func TestMarkBurnsSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if seq, err := s.Append(Record{Kind: KindMark}); err != nil || seq != 1 {
		t.Fatalf("Append(mark) = (%d, %v), want (1, nil)", seq, err)
	}
	if seq, err := s.Append(Record{Kind: KindStake, Owner: 0, Owned: 2, Weight: 0.1}); err != nil || seq != 2 {
		t.Fatalf("Append = (%d, %v), want (2, nil)", seq, err)
	}
}

func TestOpenRejectsWALGap(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append(Record{Kind: KindMark}); err != nil {
			t.Fatalf("Append(mark): %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Replace the segment with one that starts at seq 6 — records 1..5 are
	// gone and no checkpoint covers them.
	old := segPath(dir, 1)
	data, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(old)
	if err := os.WriteFile(segPath(dir, 6), data[5*frameLen:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("Open accepted a WAL that starts past the checkpoint coverage")
	}
}
