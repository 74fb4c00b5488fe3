package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// FuzzScanSegment writes the fuzzed bytes as the store's one WAL segment
// and recovers it with Open + Replay, the frame scan every boot runs over
// what it finds on disk. It must never panic; every record it replays must
// have a known Kind and continue the sequence from 1; and a second Open,
// after the first has truncated the torn tail, must replay the same records.
func FuzzScanSegment(f *testing.F) {
	var seg []byte
	for i, rec := range []Record{
		{Kind: KindStake, Owner: 3, Owned: 7, Weight: 0.4},
		{Kind: KindStake, Owner: 3, Owned: 7, Remove: true},
		{Kind: KindStake, Owner: 9, Owned: 2, Weight: 1},
	} {
		seg = appendFrame(seg, uint64(i+1), rec)
	}
	f.Add(seg)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayAll := func() []Record {
			st, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatalf("open over a single segment: %v", err)
			}
			defer st.Kill()
			var recs []Record
			err = st.Replay(func(rec Record) error {
				if rec.Kind != KindStake {
					t.Fatalf("replayed record %+v of unknown kind", rec)
				}
				if want := uint64(len(recs) + 1); rec.Seq != want {
					t.Fatalf("replayed seq %d, want %d", rec.Seq, want)
				}
				recs = append(recs, rec)
				return nil
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			return recs
		}
		first := replayAll()
		again := replayAll()
		if len(again) != len(first) {
			t.Fatalf("second recovery replayed %d records, first %d", len(again), len(first))
		}
		for i := range first {
			if !sameRecord(first[i], again[i]) {
				t.Fatalf("record %d: first recovery %+v, second %+v", i, first[i], again[i])
			}
		}
	})
}

// sameRecord compares two records with Weight by bits, so a NaN weight
// equals itself.
func sameRecord(a, b Record) bool {
	wa, wb := math.Float64bits(a.Weight), math.Float64bits(b.Weight)
	a.Weight, b.Weight = 0, 0
	return wa == wb && a == b
}

// fuzzMaxCap bounds the id capacity a checkpoint's embedded CCPG1 header may
// declare: the graph decoder sizes the graph from it before reading any id,
// so one four-byte field can ask for tens of gigabytes. That is a resource
// limit for the caller to set, not a decoding bug; the partition and graph
// fuzz targets skip the same inputs.
const fuzzMaxCap = 1 << 16

// ckptGraphCap reads the capacity field of the CCPG1 payload inside a
// checkpoint file — magic, seq, then the CCPP2 image: its magic, id, member
// and virtual id lists, in-nodes each with its owner list, and the graph —
// or 0 if the file ends before it.
func ckptGraphCap(data []byte) uint32 {
	off := uint64(len(ckptMagic)) + 8 + uint64(len("CCPP2\n")) + 4
	skipList := func() {
		if off+4 > uint64(len(data)) {
			off = uint64(len(data)) + 1
			return
		}
		off += 4 + 4*uint64(binary.LittleEndian.Uint32(data[off:]))
	}
	skipList() // members
	skipList() // virtual nodes
	if off+4 <= uint64(len(data)) {
		n := binary.LittleEndian.Uint32(data[off:])
		off += 4
		for i := uint32(0); i < n && off <= uint64(len(data)); i++ {
			off += 4   // in-node
			skipList() // its foreign owners
		}
	}
	off += uint64(len("CCPG1\n"))
	if off+4 > uint64(len(data)) {
		return 0
	}
	return binary.LittleEndian.Uint32(data[off:])
}

// FuzzLoadCheckpoint throws arbitrary file bytes at loadCheckpoint, the
// decoder recovery runs on what it finds on disk. Each input is tried as
// is and reframed under a valid magic and CRC, so mutations reach the
// partition decoder behind the checksum. It must reject or accept, never
// panic, and an accepted file's partition must re-encode to exactly the
// image it was read from, with the file's seq and size.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	p, _ := testPartition(f, 3)
	if _, err := writeCheckpoint(dir, 7, p); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(ckptPath(dir, 7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ckptGraphCap(data) > fuzzMaxCap {
			t.Skip("declared capacity over the fuzzing bound")
		}
		path := ckptPath(t.TempDir(), 1)
		for _, file := range [][]byte{data, reframe(data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			seq, p, size, err := loadCheckpoint(path)
			if err != nil {
				continue
			}
			image := file[len(ckptMagic)+8 : len(file)-4]
			var again bytes.Buffer
			if err := p.WriteBinary(&again); err != nil {
				t.Fatalf("accepted partition does not encode: %v", err)
			}
			if !bytes.Equal(again.Bytes(), image) {
				t.Fatalf("accepted image of %d bytes re-encodes to %d different bytes", len(image), again.Len())
			}
			if seq != binary.LittleEndian.Uint64(file[len(ckptMagic):]) || size != int64(len(file)) {
				t.Fatalf("accepted file: seq %d size %d, file holds %d bytes", seq, size, len(file))
			}
		}
	})
}

// reframe wraps data's CRC-covered part — everything past the magic, less
// the trailing CRC — in a valid magic and CRC.
func reframe(data []byte) []byte {
	body := data[min(len(ckptMagic), len(data)):]
	body = body[:max(0, len(body)-4)]
	out := append([]byte(ckptMagic), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}
