// Package store implements the durable site store of the distributed
// deployment: an append-only, CRC-guarded write-ahead log of ownership
// updates with monotonic sequence numbers and an fsync per append, plus
// periodic compact checkpoints of the whole partition (reusing the
// binary partition codec). Crash recovery loads the newest valid checkpoint
// and replays the WAL tail; a torn final record — the signature of a crash
// mid-append — is truncated away, never panicked on.
//
// The store is deliberately ignorant of partition semantics: it persists
// and replays Records, and the site applies them through the same
// partition.ApplyStake path live updates take, so a replayed history
// reproduces the pre-crash state bit for bit.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind classifies a WAL record.
type Kind uint8

// KindStake merges (or, with Remove, divests) an ownership edge. It is the
// only kind: both home sites of a stake log the same record, each for the
// half it holds.
const KindStake Kind = 1

// Record is one durable ownership update.
type Record struct {
	// Seq is the record's monotonic sequence number: assigned by Append,
	// populated on replayed records.
	Seq  uint64
	Kind Kind
	// Owner, Owned are the stake's endpoints.
	Owner, Owned int32
	// Weight is the merged fraction (Remove false).
	Weight float64
	// Remove divests the stake instead of merging Weight.
	Remove bool
}

// Wire framing: every record is length-prefixed and CRC-guarded so a torn
// tail is detected, never misparsed:
//
//	[0:4)   payload length (LE)
//	[4:8)   CRC32-IEEE over seq bytes + payload
//	[8:16)  sequence number (LE)
//	[16:…)  payload
//
// The payload is fixed-size today (kind, flags, owner, owned, weight); the
// length prefix keeps the format extensible.
const (
	frameHeader = 16
	payloadLen  = 18
	frameLen    = frameHeader + payloadLen

	// maxPayload bounds a decoded length prefix so a corrupt header cannot
	// ask for a gigabyte read.
	maxPayload = 1 << 16

	flagRemove = 1
)

// appendFrame serializes rec (with sequence seq) onto buf.
func appendFrame(buf []byte, seq uint64, rec Record) []byte {
	var p [payloadLen]byte
	p[0] = byte(rec.Kind)
	if rec.Remove {
		p[1] = flagRemove
	}
	binary.LittleEndian.PutUint32(p[2:6], uint32(rec.Owner))
	binary.LittleEndian.PutUint32(p[6:10], uint32(rec.Owned))
	binary.LittleEndian.PutUint64(p[10:18], math.Float64bits(rec.Weight))

	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], payloadLen)
	binary.LittleEndian.PutUint64(h[8:16], seq)
	crc := crc32.ChecksumIEEE(h[8:16])
	crc = crc32.Update(crc, crc32.IEEETable, p[:])
	binary.LittleEndian.PutUint32(h[4:8], crc)

	buf = append(buf, h[:]...)
	return append(buf, p[:]...)
}

// decodeFrame parses one frame from data. It returns the record, the bytes
// consumed, and an error classifying the failure: errShortFrame when data
// ends inside the frame (a torn tail), errBadFrame when the frame is
// complete but fails validation (corruption).
func decodeFrame(data []byte) (Record, int, error) {
	if len(data) < frameHeader {
		return Record{}, 0, errShortFrame
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	if plen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", errBadFrame, plen)
	}
	total := frameHeader + int(plen)
	if len(data) < total {
		return Record{}, 0, errShortFrame
	}
	crc := crc32.ChecksumIEEE(data[8:16])
	crc = crc32.Update(crc, crc32.IEEETable, data[frameHeader:total])
	if crc != binary.LittleEndian.Uint32(data[4:8]) {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", errBadFrame)
	}
	if plen < payloadLen {
		return Record{}, 0, fmt.Errorf("%w: payload %d bytes", errBadFrame, plen)
	}
	p := data[frameHeader:total]
	rec := Record{
		Seq:    binary.LittleEndian.Uint64(data[8:16]),
		Kind:   Kind(p[0]),
		Remove: p[1]&flagRemove != 0,
		Owner:  int32(binary.LittleEndian.Uint32(p[2:6])),
		Owned:  int32(binary.LittleEndian.Uint32(p[6:10])),
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(p[10:18])),
	}
	if rec.Kind != KindStake {
		return Record{}, 0, fmt.Errorf("%w: kind %d", errBadFrame, rec.Kind)
	}
	return rec, total, nil
}
