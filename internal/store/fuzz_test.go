package store

import (
	"math"
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
