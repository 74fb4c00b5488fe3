package dist

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"ccp/internal/control"
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

// FuzzServeConn feeds arbitrary bytes to Server.serveConn — the gob decoder
// and dispatch every site runs on its socket — over an in-memory pipe to a
// small site. serveConn must not panic, must close the connection once the
// bytes run out, and must leave the server answering a well-formed evaluate
// on a fresh connection. The site is a read-only follower: an apply from the
// wire naming an unbounded company id would size the partition's id space
// to it (gigabytes), the hazard FuzzApply sidesteps by folding ids, so here
// every fuzzed write is refused before it reaches the partition.
func FuzzServeConn(f *testing.F) {
	var valid bytes.Buffer
	enc := gob.NewEncoder(&valid)
	for _, req := range []*request{
		{ID: 1, Op: opEvaluate, S: 0, T: 1, UseCache: true, DeadlineNS: int64(time.Second)},
		{ID: 2, Op: opInfo},
		{ID: 3, Op: opPrecompute},
		{ID: 4, Op: opApply, Record: store.Record{Kind: store.KindStake, Owner: 0, Owned: 2, Weight: 0.3}},
		{ID: 5, Op: opReplPull, FromSeq: 1, MaxRecords: 8, WaitNS: int64(time.Millisecond)},
		{ID: 6, Op: opReplSnapshot},
		{ID: 7, Op: 99, S: -1, T: 1 << 30},
	} {
		if err := enc.Encode(req); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add([]byte("this is not gob at all, not even close"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		site := testSite(t)
		site.SetReadOnly(true)
		srv := NewServer(site, ServerConfig{})
		serve := func() (net.Conn, <-chan struct{}) {
			client, server := net.Pipe()
			done := make(chan struct{})
			srv.connWG.Add(1)
			go func() {
				srv.serveConn(server)
				close(done)
			}()
			return client, done
		}
		closed := func(done <-chan struct{}) {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("serveConn did not close the connection")
			}
		}

		conn, done := serve()
		go io.Copy(io.Discard, conn)
		conn.Write(data) // fails once serveConn gives up on the stream
		conn.Close()
		closed(done)

		conn, done = serve()
		defer closed(done)
		defer conn.Close()
		if err := gob.NewEncoder(conn).Encode(&request{ID: 9, Op: opEvaluate, S: 0, T: 1}); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
			t.Fatalf("fresh connection: %v", err)
		}
		if resp.ID != 9 || resp.Err != "" || control.Answer(resp.Ans) != control.True {
			t.Fatalf("fresh connection: evaluate(0,1) answered %+v", resp)
		}
	})
}
