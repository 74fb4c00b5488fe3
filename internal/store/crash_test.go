package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccp/internal/partition"
)

// crashRig drives a store to a known state and hands the test the on-disk
// artifacts to damage. It returns the records appended (1-indexed by seq)
// and a twin builder that reproduces the state after the first n records.
type crashRig struct {
	dir  string
	recs []Record
	seed int64
}

// build appends n records through a store (fsync on, so every acked record
// is on disk), checkpointing where ckptAt says, then simulates a kill: the
// store is abandoned with only the WAL file handle closed, no final
// checkpoint.
func buildCrashRig(t *testing.T, n int, ckptAt ...int) *crashRig {
	t.Helper()
	rig := &crashRig{dir: t.TempDir(), seed: 77}
	live, rng := testPartition(t, rig.seed)
	s, err := Open(rig.dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var lastSeq uint64
	s.source = func() (uint64, *partition.Partition) { return lastSeq, live.Snapshot() }
	ckpt := map[int]bool{}
	for _, i := range ckptAt {
		ckpt[i] = true
	}
	for i := 0; i < n; i++ {
		rec := randomRecord(rng)
		applyRecord(t, live, rec)
		seq, err := s.Append(rec)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		lastSeq = seq
		rig.recs = append(rig.recs, rec)
		if ckpt[i] {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	s.wal.close() // release the fd; every record is already fsynced
	return rig
}

// twin rebuilds the partition state after the first n records.
func (r *crashRig) twin(t *testing.T, n int) *partition.Partition {
	t.Helper()
	p, _ := testPartition(t, r.seed)
	for _, rec := range r.recs[:n] {
		applyRecord(t, p, rec)
	}
	return p
}

// recover reopens the damaged store and returns the recovered partition and
// the highest recovered sequence number. Any panic fails the test.
func (r *crashRig) recover(t *testing.T) (*partition.Partition, uint64) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("recovery panicked: %v", p)
		}
	}()
	s, err := Open(r.dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s.Close()
	base, seq := s.Base()
	if base == nil {
		base = r.twin(t, 0)
		if seq != 0 {
			t.Fatalf("no checkpoint image but Base seq = %d", seq)
		}
	}
	last := seq
	if err := s.Replay(func(rec Record) error {
		if rec.Seq != last+1 {
			t.Fatalf("replay out of order: %d after %d", rec.Seq, last)
		}
		last = rec.Seq
		applyRecord(t, base, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if s.AppendedSeq() != last {
		t.Fatalf("AppendedSeq = %d after recovering to %d", s.AppendedSeq(), last)
	}
	return base, last
}

// activeSegment returns the newest (largest-first) WAL segment path.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestFirst uint64
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok && (best == "" || first > bestFirst) {
			best, bestFirst = filepath.Join(dir, e.Name()), first
		}
	}
	if best == "" {
		t.Fatal("no WAL segment on disk")
	}
	return best
}

// TestCrashTornFinalRecord cuts the final WAL record mid-frame — the
// signature of a kill mid-append — at every possible offset.
func TestCrashTornFinalRecord(t *testing.T) {
	for _, cut := range []int64{1, frameHeader - 1, frameHeader, frameLen - 1} {
		rig := buildCrashRig(t, 120, 49)
		seg := activeSegment(t, rig.dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-frameLen+cut); err != nil {
			t.Fatal(err)
		}
		got, seq := rig.recover(t)
		if seq != 119 {
			t.Fatalf("cut %d: recovered to seq %d, want 119 (last durable)", cut, seq)
		}
		samePartition(t, rig.twin(t, 119), got)
	}
}

// TestCrashCorruptTailRecord flips a byte inside the final record: a
// complete but invalid frame must be treated exactly like a torn tail.
func TestCrashCorruptTailRecord(t *testing.T) {
	rig := buildCrashRig(t, 80)
	seg := activeSegment(t, rig.dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-frameLen+20] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq := rig.recover(t)
	if seq != 79 {
		t.Fatalf("recovered to seq %d, want 79", seq)
	}
	samePartition(t, rig.twin(t, 79), got)
}

// TestOpenRejectsCorruptSealedSegment flips a byte inside a sealed segment.
// Unlike a corrupt tail in the final segment, that is not what a crash
// leaves behind: recovery must refuse to open, name the segment, and leave
// the file as it found it.
func TestOpenRejectsCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	live, rng := testPartition(t, 19)
	s, err := Open(dir, Options{NoSync: true, CheckpointEvery: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var lastSeq uint64
	s.Start(func() (uint64, *partition.Partition) { return lastSeq, live.Snapshot() })
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			rec := randomRecord(rng)
			applyRecord(t, live, rec)
			if lastSeq, err = s.Append(rec); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	appendN(30)
	if err := s.Checkpoint(); err != nil { // seals the first segment
		t.Fatalf("Checkpoint: %v", err)
	}
	appendN(30)
	// Close checkpoints again: the second segment is sealed, and the first,
	// covered by the earlier checkpoint, is dropped.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(s.wal.sealed) != 1 {
		t.Fatalf("%d sealed segments after Close, want 1", len(s.wal.sealed))
	}
	seg := s.wal.sealed[0].path
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a corrupt sealed WAL segment")
	}
	if !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "corrupt before the final segment") {
		t.Fatalf("error does not name the corrupt sealed segment %s: %v", seg, err)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("sealed segment truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestCrashMidCheckpoint leaves the artifacts of a kill mid-checkpoint: a
// partial .tmp file that never got renamed. Recovery must ignore and delete
// it, then replay the whole tail behind the previous checkpoint.
func TestCrashMidCheckpoint(t *testing.T) {
	rig := buildCrashRig(t, 100, 39)
	tmp := ckptPath(rig.dir, 100) + ckptTmp
	if err := os.WriteFile(tmp, []byte(ckptMagic+"partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq := rig.recover(t)
	if seq != 100 {
		t.Fatalf("recovered to seq %d, want 100", seq)
	}
	samePartition(t, rig.twin(t, 100), got)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint tmp survived recovery: %v", err)
	}
}

// TestCrashCorruptNewestCheckpoint bit-rots the newest checkpoint. Recovery
// must fall back to its predecessor — whose WAL tail was deliberately
// retained — and still reach the last durable record.
func TestCrashCorruptNewestCheckpoint(t *testing.T) {
	rig := buildCrashRig(t, 150, 49, 99)
	cks, err := listCheckpoints(rig.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2", len(cks))
	}
	data, err := os.ReadFile(cks[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(cks[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq := rig.recover(t)
	if seq != 150 {
		t.Fatalf("recovered to seq %d, want 150", seq)
	}
	samePartition(t, rig.twin(t, 150), got)
	// The corrupt checkpoint must be gone so retention never counts it.
	cks, _ = listCheckpoints(rig.dir)
	for _, ck := range cks {
		if ck.seq == 100 {
			t.Fatalf("corrupt checkpoint %s survived recovery", ck.path)
		}
	}
}

// TestCrashBothCheckpointsCorrupt is the documented limit: with every
// checkpoint gone and the early WAL segments already deleted, recovery must
// refuse loudly (a gap error) rather than serve a silently wrong state.
func TestCrashBothCheckpointsCorrupt(t *testing.T) {
	rig := buildCrashRig(t, 150, 49, 99)
	cks, err := listCheckpoints(rig.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range cks {
		if err := os.Truncate(ck.path, 10); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Open(rig.dir, Options{})
	if err == nil {
		t.Fatalf("Open succeeded with no usable checkpoint and a truncated WAL")
	}
	if !strings.Contains(err.Error(), "wal starts at") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCrashWhileStreaming runs many seeds of "kill at a random point, no
// clean close" and checks every recovery lands on an exact record-prefix
// state.
func TestCrashWhileStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		n := 20 + rng.Intn(150)
		var ckpts []int
		if n > 40 {
			ckpts = append(ckpts, rng.Intn(n/2))
		}
		rig := buildCrashRig(t, n, ckpts...)
		got, seq := rig.recover(t)
		if seq != uint64(n) {
			t.Fatalf("seed %d: recovered to %d, want %d", i, seq, n)
		}
		samePartition(t, rig.twin(t, n), got)
	}
}
