package dist

import (
	"bytes"
	"testing"

	"ccp/internal/store"
)

// fuzzIDs bounds the company ids FuzzApply hands the site. A stake to a new
// foreign company puts a virtual stub at that index of the partition's
// dense id space, so an unbounded fuzzed id would allocate gigabytes;
// non-negative ids are folded below fuzzIDs, which still reaches past the
// seeded graph's 16 ids. Negative ids pass unfolded: Apply must reject them.
const fuzzIDs = 40

// FuzzApply drives the one write path with arbitrary record batches — the
// bytes a follower decodes off the socket — each record applied as a new
// write to a small seeded site. Apply must never panic; a rejected record
// must leave the partition bytes and the epoch unchanged; and replaying the
// accepted records with the seqs they were assigned into a fresh site must
// rebuild the same bytes and epoch, which is what recovery and replication
// rely on.
func FuzzApply(f *testing.F) {
	f.Add(store.EncodeRecords(nil, []store.Record{
		{Kind: store.KindStake, Owner: 0, Owned: 5, Weight: 0.4},
		{Kind: store.KindStake, Owner: 0, Owned: 33, Weight: 1.5},
		{Kind: store.KindStake, Owner: 0, Owned: -1, Weight: 0.2},
		{Kind: store.KindCrossIn, Owned: 2, Delta: 1},
		{Kind: store.KindCrossIn, Owned: 2, Delta: -1},
		{Kind: store.KindMark},
		{Kind: store.KindStake, Owner: 0, Owned: 5, Remove: true},
	}))
	// Frames are CRC-guarded, so mutations rarely yield new valid ones; the
	// fuzzer mostly reorders, repeats and drops whole frames. This batch
	// gives it members, foreign and fresh ids, clamps and in-node ticks.
	f.Add(store.EncodeRecords(nil, []store.Record{
		{Kind: store.KindStake, Owner: 2, Owned: 4, Weight: 1},
		{Kind: store.KindStake, Owner: 2, Owned: 4, Weight: 1},
		{Kind: store.KindStake, Owner: 4, Owned: 7, Weight: 0.3},
		{Kind: store.KindStake, Owner: 4, Owned: 7, Weight: 0.3},
		{Kind: store.KindStake, Owner: 6, Owned: 39, Weight: 0.6},
		{Kind: store.KindStake, Owner: 6, Owned: 39, Weight: 0.6, Remove: true},
		{Kind: store.KindStake, Owner: 4, Owned: 4, Weight: 0.2},
		{Kind: store.KindStake, Owner: 3, Owned: 4, Weight: 0.2},
		{Kind: store.KindCrossIn, Owned: 4, Delta: 1},
		{Kind: store.KindCrossIn, Owned: 4, Delta: 1},
		{Kind: store.KindCrossIn, Owned: 4, Delta: -1},
		{Kind: store.KindCrossIn, Owned: 5, Delta: 1},
		{Kind: store.KindCrossIn, Owned: 6, Delta: 2},
	}))
	seed := durableSeed(7, 16, 0)
	site := func(t *testing.T) *Site {
		p, err := seed()
		if err != nil {
			t.Fatal(err)
		}
		return NewSite(p, 1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := store.DecodeRecords(data)
		if err != nil {
			return
		}
		s := site(t)
		var accepted []store.Record
		for _, rec := range recs {
			rec.Seq = 0
			if rec.Owner >= fuzzIDs {
				rec.Owner %= fuzzIDs
			}
			if rec.Owned >= fuzzIDs {
				rec.Owned %= fuzzIDs
			}
			before, epoch := partBytes(t, s), s.Epoch()
			res, err := s.Apply(rec)
			if err != nil {
				if !bytes.Equal(before, partBytes(t, s)) || s.Epoch() != epoch {
					t.Fatalf("rejected %+v (%v) changed the site", rec, err)
				}
				continue
			}
			rec.Seq = res.Seq
			accepted = append(accepted, rec)
		}
		r := site(t)
		for _, rec := range accepted {
			if _, err := r.Apply(rec); err != nil {
				t.Fatalf("replaying accepted %+v: %v", rec, err)
			}
		}
		if !bytes.Equal(partBytes(t, s), partBytes(t, r)) || s.Epoch() != r.Epoch() {
			t.Fatalf("replaying %d accepted records diverged: epoch %d, want %d", len(accepted), r.Epoch(), s.Epoch())
		}
	})
}
