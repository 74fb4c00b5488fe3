package store

import (
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
)

// Options tunes a Store.
type Options struct {
	// NoSync disables the per-commit fsync: appends are only as durable as
	// the OS page cache. Benchmarks and tests that model in-process crashes
	// (where the page cache survives) use it; production sites keep fsync.
	NoSync bool
	// CheckpointEvery is the background checkpoint interval once Start is
	// called. 0 means DefaultCheckpointEvery; negative disables the
	// time-based trigger.
	CheckpointEvery time.Duration
	// CheckpointBytes checkpoints early when that many WAL bytes accumulated
	// past the last checkpoint. 0 means DefaultCheckpointBytes; negative
	// disables the size-based trigger.
	CheckpointBytes int64
	// Logger receives recovery and checkpoint diagnostics; nil discards.
	Logger *slog.Logger
}

// Default background-checkpoint triggers: whichever of "the WAL tail grew
// past this" or "this much time passed with new records" fires first.
const (
	DefaultCheckpointEvery = 30 * time.Second
	DefaultCheckpointBytes = 8 << 20
)

// bgPoll is the background loop's trigger-check cadence; a variable so tests
// can tighten it.
var bgPoll = 250 * time.Millisecond

// Stats is a point-in-time snapshot of the store's state.
type Stats struct {
	Dir string `json:"dir"`
	// AppendedSeq is the last assigned sequence number; DurableSeq the last
	// one known durable (equal except mid-commit, or once a failed fsync
	// has poisoned the log).
	AppendedSeq uint64 `json:"appended_seq"`
	DurableSeq  uint64 `json:"durable_seq"`
	// CheckpointSeq is the sequence number covered by the newest checkpoint.
	CheckpointSeq   uint64 `json:"checkpoint_seq"`
	CheckpointBytes int64  `json:"checkpoint_bytes"`
	// CheckpointAge is the time since the newest checkpoint was written
	// (zero when the store has never checkpointed).
	CheckpointAge time.Duration `json:"checkpoint_age_ns"`
	Checkpoints   uint64        `json:"checkpoints"`
	// WALBytes spans every live segment; WALSegments counts them.
	WALBytes    int64  `json:"wal_bytes"`
	WALSegments int    `json:"wal_segments"`
	Appends     uint64 `json:"appends"`
	Fsyncs      uint64 `json:"fsyncs"`
	// RecoveredRecords is how many WAL records the boot replay applied.
	RecoveredRecords int `json:"recovered_records"`
}

// Store is the durable backing of one site partition: a WAL of updates plus
// compact checkpoints. Open recovers; Append logs; Start begins background
// checkpointing; Close drains and releases everything.
//
// Appends must be externally ordered with respect to the state they
// describe — the site calls Append under the same lock that mutates the
// partition, so WAL order is application order. That caller is the log's
// one committer: each append pays its own fsync, and none waits on another.
type Store struct {
	dir  string
	opts Options
	wal  *wal
	ev   obs.Emitter
	site int32

	// ckMu serializes checkpoint builds (background loop vs Close vs an
	// explicit Checkpoint call).
	ckMu sync.Mutex

	mu          sync.Mutex // guards the checkpoint bookkeeping below
	ckptSeq     uint64
	ckptAt      time.Time
	ckptBytes   int64
	ckptWALBase int64 // lifetime-append bytes when the last checkpoint ran

	ckpts    atomic.Uint64
	replayed int
	base     *partition.Partition
	source   func() (uint64, *partition.Partition)
	closed   atomic.Bool
	bgStop   chan struct{}
	bgDone   chan struct{}
}

// Open opens (creating if needed) the store in dir and prepares recovery:
// the newest valid checkpoint is loaded (an invalid one falls back to its
// predecessor) and the WAL's torn tail, if any, is truncated. The caller
// gets the checkpoint image from Base, replays the tail with Replay, and
// then serves.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, site: -1}
	s.ev.SetLogger(opts.Logger)

	cks, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for _, ck := range cks {
		seq, p, size, err := loadCheckpoint(ck.path)
		if err != nil {
			// Delete it so the retention window (newest two) never counts a
			// checkpoint that cannot be recovered from.
			s.ev.Log().Warn("checkpoint invalid, falling back", "path", ck.path, "err", err)
			os.Remove(ck.path)
			continue
		}
		s.base, s.ckptSeq, s.ckptBytes = p, seq, size
		if fi, err := os.Stat(ck.path); err == nil {
			s.ckptAt = fi.ModTime()
		}
		break
	}

	w, err := openWAL(dir, s.ckptSeq, !opts.NoSync)
	if err != nil {
		return nil, err
	}
	// The oldest surviving WAL record must continue where the checkpoint
	// left off; a gap means the tail needed for recovery was lost.
	first := w.active.first
	if len(w.sealed) > 0 {
		first = w.sealed[0].first
	}
	if first > s.ckptSeq+1 {
		w.close()
		return nil, fmt.Errorf("store: wal starts at %d but checkpoint covers only %d", first, s.ckptSeq)
	}
	s.wal = w
	return s, nil
}

// Base returns the recovered checkpoint image and the sequence number it
// covers, or (nil, 0) on a fresh store — the caller then seeds the
// partition itself.
func (s *Store) Base() (*partition.Partition, uint64) {
	return s.base, s.ckptSeq
}

// Replay streams the WAL tail — every record past the checkpoint — to
// apply, in sequence order, and releases the checkpoint image. Call exactly
// once, after Open, before serving.
func (s *Store) Replay(apply func(Record) error) error {
	start := time.Now()
	n := 0
	err := s.wal.replay(s.ckptSeq, func(rec Record) error {
		n++
		return apply(rec)
	})
	s.replayed = n
	s.base = nil
	s.ev.Emit(flight.RecoverReplay, s.site, 0, int64(n), int64(time.Since(start)))
	return err
}

// Append durably logs rec and returns its sequence number — the site's new
// epoch. With fsync on it returns only after the record, and so every record
// before it, is on stable storage. A failed write or fsync leaves the store
// sticky-failed: every later Append fails.
func (s *Store) Append(rec Record) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	seq, err := s.wal.append(rec)
	if err != nil {
		return 0, err
	}
	s.ev.Emit(flight.WALAppend, s.site, 0, int64(seq), frameLen)
	return seq, nil
}

// DurableSeq returns the last sequence number known to be on stable
// storage.
func (s *Store) DurableSeq() uint64 { return s.wal.synced.Load() }

// AppendedSeq returns the last assigned sequence number.
func (s *Store) AppendedSeq() uint64 { return s.wal.appended.Load() }

// Start begins background checkpointing. source must return a consistent
// (sequence number, partition image) pair — the image reflecting exactly
// the records up to that sequence number — that no later update touches.
// The site produces it as a deep copy (partition.Snapshot) under its read
// lock, so updates wait for the O(nodes + edges) copy but not for the
// checkpoint write.
func (s *Store) Start(source func() (uint64, *partition.Partition)) {
	s.source = source
	every, bytes := s.opts.CheckpointEvery, s.opts.CheckpointBytes
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	if bytes == 0 {
		bytes = DefaultCheckpointBytes
	}
	if every < 0 && bytes < 0 {
		return
	}
	s.bgStop, s.bgDone = make(chan struct{}), make(chan struct{})
	go s.run(every, bytes)
}

func (s *Store) run(every time.Duration, bytes int64) {
	defer close(s.bgDone)
	tick := time.NewTicker(bgPoll)
	defer tick.Stop()
	for {
		select {
		case <-s.bgStop:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		due := false
		if s.wal.appended.Load() > s.ckptSeq {
			if every > 0 && time.Since(s.ckptAt) >= every {
				due = true
			}
			if bytes > 0 && s.walBytesSinceCkpt() >= bytes {
				due = true
			}
		}
		s.mu.Unlock()
		if !due {
			continue
		}
		if err := s.Checkpoint(); err != nil && err != ErrClosed {
			s.ev.Log().Warn("background checkpoint failed", "dir", s.dir, "err", err)
		}
	}
}

// walBytesSinceCkpt estimates the WAL growth past the last checkpoint.
// Caller holds s.mu.
func (s *Store) walBytesSinceCkpt() int64 {
	return int64(s.wal.appends.Load())*frameLen - s.ckptWALBase
}

// Checkpoint writes a checkpoint now: rotate the WAL (so the sealed
// segments are exactly the covered records), capture the source image, and
// persist it. Old checkpoints beyond the newest two, and WAL segments fully
// covered by the *previous* kept checkpoint, are deleted — one corrupt
// newest checkpoint therefore never loses data, recovery just replays the
// longer tail behind its predecessor.
func (s *Store) Checkpoint() error {
	if s.source == nil {
		return fmt.Errorf("store: no checkpoint source")
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.checkpointLocked()
}

// checkpointLocked does the actual checkpoint work. Caller holds ckMu.
func (s *Store) checkpointLocked() error {
	start := time.Now()
	if err := s.wal.rotate(); err != nil {
		return err
	}
	seq, img := s.source()
	size, err := writeCheckpoint(s.dir, seq, img)
	if err != nil {
		return err
	}
	s.ckpts.Add(1)

	s.mu.Lock()
	prev := s.ckptSeq
	s.ckptSeq, s.ckptAt, s.ckptBytes = seq, time.Now(), size
	s.ckptWALBase = int64(s.wal.appends.Load()) * frameLen
	s.mu.Unlock()

	// Retention: keep this checkpoint and its predecessor; drop WAL
	// segments the predecessor already covers.
	if cks, err := listCheckpoints(s.dir); err == nil {
		for i, ck := range cks {
			if i >= 2 {
				os.Remove(ck.path)
			}
		}
	}
	if err := s.wal.dropCoveredBy(prev); err != nil {
		s.ev.Log().Warn("wal segment cleanup failed", "err", err)
	}
	s.ev.Emit(flight.CkptBuild, s.site, 0, int64(time.Since(start)), size)
	return nil
}

// Close stops background checkpointing, writes a final checkpoint when new
// records landed since the last one (so the next boot replays nothing), and
// closes the WAL. Close is idempotent; Append after Close fails with
// ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
	}
	var err error
	if s.source != nil {
		// closed is already set, so only this final checkpoint can run;
		// ckMu also waits out a Checkpoint call that slipped in before.
		s.ckMu.Lock()
		s.mu.Lock()
		dirty := s.wal.appended.Load() > s.ckptSeq
		s.mu.Unlock()
		if dirty {
			err = s.checkpointLocked()
		}
		s.ckMu.Unlock()
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Kill closes the store abruptly: no final checkpoint, the on-disk state is
// what recovery would find after a crash at this moment (with fsync on,
// exactly the acked records; with NoSync, the written-out prefix). Crash
// and restart tests use it; a clean shutdown wants Close.
func (s *Store) Kill() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
	}
	return s.wal.close()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Dir:              s.dir,
		AppendedSeq:      s.wal.appended.Load(),
		DurableSeq:       s.wal.synced.Load(),
		CheckpointSeq:    s.ckptSeq,
		CheckpointBytes:  s.ckptBytes,
		Checkpoints:      s.ckpts.Load(),
		WALBytes:         s.wal.bytes.Load(),
		Appends:          s.wal.appends.Load(),
		Fsyncs:           s.wal.fsyncs.Load(),
		RecoveredRecords: s.replayed,
	}
	if !s.ckptAt.IsZero() {
		st.CheckpointAge = time.Since(s.ckptAt)
	}
	s.mu.Unlock()
	st.WALSegments = s.wal.segments()
	return st
}

// Observe registers the store's gauges and counters on o's registry,
// labeled with the site id, and points the store's events (wal.append,
// ckpt.build) at o. Call once, before serving.
func (s *Store) Observe(o *obs.Observer, site int) {
	s.site = int32(site)
	s.ev.Attach(o)
	reg := o.Registry()
	l := obs.Label{Key: "site", Value: strconv.Itoa(site)}
	reg.GaugeFunc("ccp_store_durable_seq",
		"Last WAL sequence number known durable.",
		func() float64 { return float64(s.DurableSeq()) }, l)
	reg.GaugeFunc("ccp_store_checkpoint_seq",
		"Sequence number covered by the newest checkpoint.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.ckptSeq) }, l)
	reg.GaugeFunc("ccp_store_wal_bytes",
		"Bytes across all live WAL segments.",
		func() float64 { return float64(s.wal.bytes.Load()) }, l)
	reg.GaugeFunc("ccp_store_checkpoint_age_seconds",
		"Seconds since the newest checkpoint was written.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.ckptAt.IsZero() {
				return 0
			}
			return time.Since(s.ckptAt).Seconds()
		}, l)
	reg.CounterFunc("ccp_store_appends_total",
		"WAL records appended.",
		func() float64 { return float64(s.wal.appends.Load()) }, l)
	reg.CounterFunc("ccp_store_fsyncs_total",
		"WAL fsync calls: one per append with fsync on, plus rotations and close.",
		func() float64 { return float64(s.wal.fsyncs.Load()) }, l)
	reg.CounterFunc("ccp_store_checkpoints_total",
		"Checkpoints written.",
		func() float64 { return float64(s.ckpts.Load()) }, l)
	reg.CounterFunc("ccp_store_recovered_records_total",
		"WAL records replayed by the boot recovery.",
		func() float64 { return float64(s.replayed) }, l)
}
