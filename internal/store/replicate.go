package store

import (
	"errors"
	"fmt"
)

// TruncatedError reports that a reader asked for WAL records the store no
// longer holds: checkpointing deleted the covered segments. The reader must
// re-bootstrap from a checkpoint image instead of tailing the log.
type TruncatedError struct {
	// From is the sequence number the reader had applied; FirstAvailable is
	// the first sequence number still on disk.
	From, FirstAvailable uint64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("store: records after %d truncated, log starts at %d", e.From, e.FirstAvailable)
}

// errStopScan aborts a segment scan early once a read hit its record cap.
var errStopScan = errors.New("store: stop scan")

// ReadFrom returns up to max records with sequence numbers strictly greater
// than from, in order. It is safe against concurrent appends: scans see a
// valid frame prefix of each segment, and anything racing past the flush is
// simply picked up by the next call. A *TruncatedError means checkpointing
// already deleted segments the reader still needs.
func (s *Store) ReadFrom(from uint64, max int) ([]Record, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.wal.readFrom(from, max)
}

// readFrom implements Store.ReadFrom: the replay walk, capped at max
// records.
func (w *wal) readFrom(from uint64, max int) ([]Record, error) {
	var out []Record
	err := w.replay(from, func(rec Record) error {
		out = append(out, rec)
		if len(out) >= max {
			return errStopScan
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeRecords serializes recs (each carrying its own sequence number) onto
// buf using the WAL's CRC-guarded frame format, so the replication wire
// payload is validated by the same codec as the on-disk log.
func EncodeRecords(buf []byte, recs []Record) []byte {
	for _, rec := range recs {
		buf = appendFrame(buf, rec.Seq, rec)
	}
	return buf
}

// DecodeRecords parses a frame batch produced by EncodeRecords. Unlike a
// segment scan, a wire payload has no legitimate torn tail: any framing
// error fails the whole batch.
func DecodeRecords(data []byte) ([]Record, error) {
	var out []Record
	for len(data) > 0 {
		rec, n, err := decodeFrame(data)
		if err != nil {
			return nil, fmt.Errorf("store: record batch: %w", err)
		}
		out = append(out, rec)
		data = data[n:]
	}
	return out, nil
}
