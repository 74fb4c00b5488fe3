package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// FuzzDecodeRecords throws mutated bytes at the decoder a follower runs on
// every ReplPull payload off the socket. It must reject or accept, never
// panic; every record it accepts must have a known Kind; and an accepted
// batch must re-encode to bytes that decode to the same records.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(EncodeRecords(nil, []Record{
		{Seq: 1, Kind: KindStake, Owner: 3, Owned: 7, Weight: 0.4},
		{Seq: 2, Kind: KindStake, Owner: 3, Owned: 7, Remove: true},
		{Seq: 3, Kind: KindCrossIn, Owned: 9, Delta: -1},
		{Seq: 4, Kind: KindMark},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return
		}
		for _, rec := range recs {
			switch rec.Kind {
			case KindStake, KindCrossIn, KindMark:
			default:
				t.Fatalf("accepted record %+v of unknown kind", rec)
			}
		}
		again, err := DecodeRecords(EncodeRecords(nil, recs))
		if err != nil {
			t.Fatalf("accepted batch does not re-decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-decoded %d records, accepted %d", len(again), len(recs))
		}
		for i := range recs {
			if !sameRecord(recs[i], again[i]) {
				t.Fatalf("record %d: accepted %+v, re-decoded %+v", i, recs[i], again[i])
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
// checkpoint file — magic, seq, then the CCPP1 image: its magic, id,
// cross-out, member and virtual id lists, cross-in pairs, and the graph —
// or 0 if the file ends before it.
func ckptGraphCap(data []byte) uint32 {
	off := uint64(len(ckptMagic)) + 8 + uint64(len("CCPP1\n")) + 8
	skip := func(width uint64) {
		if off+4 > uint64(len(data)) {
			off = uint64(len(data)) + 1
			return
		}
		off += 4 + width*uint64(binary.LittleEndian.Uint32(data[off:]))
	}
	skip(4) // members
	skip(4) // virtual nodes
	skip(8) // cross-in (id, count) pairs
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
