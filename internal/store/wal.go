package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	// errShortFrame marks a frame cut off by the end of the file — the torn
	// tail of a crash mid-append. Recovery truncates it.
	errShortFrame = errors.New("store: truncated record")
	// errBadFrame marks a complete but invalid frame (CRC or structure).
	errBadFrame = errors.New("store: corrupt record")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
)

// WAL segment files are named wal-<first>.log where <first> is the first
// sequence number the segment holds, in zero-padded hex so lexical order is
// sequence order. Segments are contiguous: segment i holds sequence numbers
// [first_i, first_{i+1}), the last one [first_n, nextSeq).
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

type segment struct {
	first uint64 // first sequence number stored in the segment
	path  string
	size  int64
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix))
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	first, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return first, true
}

// wal is the append-only log: one active segment receiving appends, zero or
// more sealed segments awaiting checkpoint coverage.
//
// One committer: the store's one caller orders its appends itself, so an
// append writes, flushes and (when fsync is on) fsyncs under mu, and no two
// appends ever share a sync. A failed write, flush or fsync poisons the log.
type wal struct {
	dir   string
	fsync bool

	mu      sync.Mutex // guards writer state and the segment lists
	f       *os.File
	bw      *bufio.Writer
	active  segment
	sealed  []segment // ascending by first
	nextSeq uint64
	scratch []byte
	werr    error // sticky write or sync error: the log is poisoned, refuse appends

	appended atomic.Uint64 // last assigned sequence number
	synced   atomic.Uint64 // last sequence number known durable

	appends atomic.Uint64 // lifetime records appended
	fsyncs  atomic.Uint64 // lifetime fsync calls
	bytes   atomic.Int64  // bytes across all live segments
}

// scanResult is what scanning one segment found.
type scanResult struct {
	records int
	lastSeq uint64
	goodLen int64 // bytes of valid records; anything past it is torn
	tail    error // why the valid prefix ends before seg.size; nil if it does not
}

// scanSegment validates the first seg.size bytes of seg's file — the length
// the segment list recorded, so bytes an in-flight append is still writing
// are never read — checking the CRCs and that sequence numbers are
// contiguous from seg.first. A torn or corrupt tail ends the scan;
// scanSegment reports where the valid prefix ends and why, and never fails
// on it — recovery truncates it in the final segment and refuses to open
// over it in a sealed one. A file shorter than seg.size is an error.
func scanSegment(seg segment, fn func(Record) error) (scanResult, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return scanResult{}, err
	}
	if int64(len(data)) < seg.size {
		return scanResult{}, fmt.Errorf("wal segment %s: %d bytes on disk, %d expected", seg.path, len(data), seg.size)
	}
	data = data[:seg.size]
	res := scanResult{lastSeq: seg.first - 1}
	off := 0
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			res.tail = err
			break
		}
		if rec.Seq != res.lastSeq+1 {
			// A sequence jump inside a segment means the tail belongs to an
			// older, partially overwritten life of the file. Treat as torn.
			res.tail = fmt.Errorf("sequence jump: got %d want %d", rec.Seq, res.lastSeq+1)
			break
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		res.records++
		res.lastSeq = rec.Seq
		off += n
		res.goodLen = int64(off)
	}
	return res, nil
}

// openWAL opens (creating if necessary) the log in dir for appending.
// baseSeq is the newest checkpoint's sequence number: with no segments on
// disk the log starts at baseSeq+1. The final segment's torn tail, if any,
// is truncated; a torn or discontiguous non-final segment is unrecoverable
// corruption and fails the open.
func openWAL(dir string, baseSeq uint64, fsync bool) (*wal, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			segs = append(segs, segment{first: first, path: filepath.Join(dir, e.Name()), size: info.Size()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	w := &wal{dir: dir, fsync: fsync}
	next := uint64(0) // expected first of the next segment; 0 = any
	for i, seg := range segs {
		if next != 0 && seg.first != next {
			return nil, fmt.Errorf("store: wal gap: segment %s does not continue at %d", seg.path, next)
		}
		res, err := scanSegment(seg, nil)
		if err != nil {
			return nil, err
		}
		last := i == len(segs)-1
		if res.tail != nil && !last {
			return nil, fmt.Errorf("store: wal segment %s corrupt before the final segment: %v", seg.path, res.tail)
		}
		if res.tail != nil {
			if err := os.Truncate(seg.path, res.goodLen); err != nil {
				return nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
			}
		}
		seg.size = res.goodLen
		segs[i] = seg
		next = res.lastSeq + 1
		w.bytes.Add(seg.size)
	}

	switch {
	case len(segs) == 0:
		w.nextSeq = baseSeq + 1
		if err := w.openActive(segment{first: w.nextSeq, path: segPath(dir, w.nextSeq)}, 0); err != nil {
			return nil, err
		}
	default:
		w.nextSeq = next
		act := segs[len(segs)-1]
		w.sealed = segs[:len(segs)-1]
		if err := w.openActive(act, act.size); err != nil {
			return nil, err
		}
	}
	w.appended.Store(w.nextSeq - 1)
	w.synced.Store(w.nextSeq - 1)
	return w, nil
}

// openActive opens seg for appending at offset size and makes it the active
// segment. Caller holds mu (or is the constructor).
func (w *wal) openActive(seg segment, size int64) error {
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 1<<16)
	} else {
		w.bw.Reset(f)
	}
	seg.size = size
	w.active = seg
	return syncDir(w.dir)
}

// append writes rec, assigns its sequence number, and — when fsync is on —
// returns only after the record is durable.
func (w *wal) append(rec Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return 0, w.werr
	}
	seq := w.nextSeq
	w.scratch = appendFrame(w.scratch[:0], seq, rec)
	n := len(w.scratch)
	if _, err := w.bw.Write(w.scratch); err != nil {
		w.werr = err
		return 0, err
	}
	w.nextSeq++
	w.active.size += int64(n)
	w.bytes.Add(int64(n))
	w.appended.Store(seq)
	w.appends.Add(1)
	if w.fsync {
		return seq, w.sync()
	}
	// Without fsync, "durable" degrades to "handed to the OS".
	w.synced.Store(seq)
	return seq, nil
}

// sync flushes and fsyncs the active segment. Any failure poisons the log:
// after a failed fsync the kernel may have dropped the written pages, so no
// later record may be acknowledged behind the lost one. Caller holds mu.
func (w *wal) sync() error {
	err := w.bw.Flush()
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.werr = err
		return err
	}
	w.fsyncs.Add(1)
	w.synced.Store(w.nextSeq - 1)
	return nil
}

// rotate seals the active segment (flushed and fsynced) and starts a new one
// at the current head. Checkpoints call it first so the checkpoint boundary
// never lands mid-segment — every sealed segment is fully covered by the
// next checkpoint and can be deleted wholesale.
func (w *wal) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return w.werr
	}
	if w.active.size == 0 {
		return nil // nothing in the active segment; reuse it
	}
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.active)
	return w.openActive(segment{first: w.nextSeq, path: segPath(w.dir, w.nextSeq)}, 0)
}

// dropCoveredBy deletes sealed segments whose entire range is at or below
// seq. Segment i's last record is segment i+1's first minus one (the active
// segment bounding the final sealed one).
func (w *wal) dropCoveredBy(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.sealed[:0]
	var firstErr error
	for i, s := range w.sealed {
		nextFirst := w.active.first
		if i+1 < len(w.sealed) {
			nextFirst = w.sealed[i+1].first
		}
		if len(kept) == 0 && nextFirst-1 <= seq {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = err
			}
			w.bytes.Add(-s.size)
			continue
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	return firstErr
}

// capture flushes the log and returns its segment list with each segment's
// written length — the snapshot the recovery replay walks. It holds the
// lock only for the flush and the copy; replay scans only the captured
// lengths, so bytes an append is still writing are never misread as torn.
// A closed log has nothing buffered, so its sizes are already final.
func (w *wal) capture() ([]segment, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return nil, w.werr
	}
	if w.f != nil {
		if err := w.bw.Flush(); err != nil {
			w.werr = err
			return nil, err
		}
	}
	return append(append([]segment(nil), w.sealed...), w.active), nil
}

// replay streams every record with sequence number > from, in order, to
// fn — the recovery walk. Open has already checked that the log reaches
// back to from+1.
func (w *wal) replay(from uint64, fn func(Record) error) error {
	segs, err := w.capture()
	if err != nil {
		return err
	}
	if w.appended.Load() <= from {
		return nil
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from+1 {
			continue // entirely at or below from
		}
		_, err := scanSegment(seg, func(rec Record) error {
			if rec.Seq <= from {
				return nil
			}
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// close flushes, syncs and closes the active segment; a poisoned log is
// closed as it lies.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.werr
	if err == nil {
		err = w.sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// segments reports the number of live segment files.
func (w *wal) segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
