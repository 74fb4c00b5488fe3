package store

import (
	"fmt"
	"os"
)

// ScrubResult reports one scrub pass over a live store's on-disk state.
type ScrubResult struct {
	// Segments / Records count the WAL segment files and frames whose CRCs
	// and sequence contiguity were re-verified this pass.
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// Checkpoints counts checkpoint files whose magic and trailing CRC were
	// re-verified (the partition payload is not decoded — the CRC covers it).
	Checkpoints int `json:"checkpoints"`
	// Skipped counts segments left out by the budget or deleted by
	// checkpoint retention between the snapshot and the read.
	Skipped int `json:"skipped"`
	// Errors are the corruption findings; an empty list is a clean pass.
	Errors []string `json:"errors,omitempty"`
}

// OK reports whether the pass found no corruption.
func (r ScrubResult) OK() bool { return len(r.Errors) == 0 }

// Summary is a one-line human rendering for probe details.
func (r ScrubResult) Summary() string {
	if !r.OK() {
		return r.Errors[0]
	}
	return fmt.Sprintf("scrubbed %d segments (%d records), %d checkpoints, %d skipped",
		r.Segments, r.Records, r.Checkpoints, r.Skipped)
}

// Scrub re-verifies the store's on-disk state on live data-dirs: every
// checkpoint's magic and CRC, plus up to maxSegments WAL segments' frame
// CRCs and sequence contiguity (maxSegments <= 0 scrubs them all). A cursor
// rotates which segments a bounded pass covers, so periodic scrubs sweep
// the whole log over time.
//
// Safe to run while appends are in flight: it scans the flushed prefix the
// WAL's capture snapshot records, and inside that prefix a torn frame is
// corruption, not a crash tail.
func (s *Store) Scrub(maxSegments int) ScrubResult {
	var res ScrubResult

	// Checkpoints first: there are at most two (retention keeps newest+1).
	cks, err := listCheckpoints(s.dir)
	if err != nil {
		res.Errors = append(res.Errors, fmt.Sprintf("listing checkpoints: %v", err))
	}
	for _, ck := range cks {
		switch _, err := checkCheckpoint(ck.path); {
		case err == nil:
			res.Checkpoints++
		case os.IsNotExist(err):
			res.Skipped++ // raced retention
		default:
			res.Errors = append(res.Errors, err.Error())
		}
	}

	segs, err := s.wal.capture()
	if err != nil {
		res.Errors = append(res.Errors, fmt.Sprintf("wal poisoned: %v", err))
		return res
	}
	if maxSegments <= 0 || maxSegments > len(segs) {
		maxSegments = len(segs)
	}
	start := int(s.scrubCursor.Add(1)-1) % len(segs)
	for i := 0; i < len(segs); i++ {
		if i >= maxSegments {
			res.Skipped++
			continue
		}
		seg := segs[(start+i)%len(segs)]
		r, err := scanSegment(seg, nil)
		switch {
		case os.IsNotExist(err):
			res.Skipped++ // raced retention drop
		case err != nil:
			res.Errors = append(res.Errors, err.Error())
		case r.tail != nil:
			res.Errors = append(res.Errors, fmt.Sprintf("wal segment %s: corrupt frame at offset %d: %v",
				seg.path, r.goodLen, r.tail))
		default:
			res.Segments++
			res.Records += r.records
		}
	}
	return res
}
