package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/store"
)

// fuzzIDs bounds the company ids FuzzApply hands the site. A stake to a new
// foreign company puts a virtual stub at that index of the partition's
// dense id space, so an unbounded fuzzed id would allocate gigabytes;
// non-negative ids are folded below fuzzIDs, which still reaches past the
// seeded graph's 16 ids. Negative ids pass unfolded: Apply must reject them.
const fuzzIDs = 40

// FuzzApply's inputs are record batches in the WAL's frame layout: a
// 16-byte header (payload length, CRC, seq) and a payload of kind, flags,
// owner, owned and weight. The CRC and seq are not read here —
// FuzzScanSegment fuzzes the store's frame checks — so every mutated
// payload reaches Apply.
const (
	fuzzFrameHeader = 16
	fuzzPayload     = 18
)

// encodeFuzzRecords lays recs out as FuzzApply input.
func encodeFuzzRecords(recs []store.Record) []byte {
	var buf []byte
	for _, rec := range recs {
		var f [fuzzFrameHeader + fuzzPayload]byte
		binary.LittleEndian.PutUint32(f[0:4], fuzzPayload)
		p := f[fuzzFrameHeader:]
		p[0] = byte(rec.Kind)
		if rec.Remove {
			p[1] = 1
		}
		binary.LittleEndian.PutUint32(p[2:6], uint32(rec.Owner))
		binary.LittleEndian.PutUint32(p[6:10], uint32(rec.Owned))
		binary.LittleEndian.PutUint64(p[10:18], math.Float64bits(rec.Weight))
		buf = append(buf, f[:]...)
	}
	return buf
}

// decodeFuzzRecords reads the whole frames at the front of data.
func decodeFuzzRecords(data []byte) []store.Record {
	var recs []store.Record
	for len(data) >= fuzzFrameHeader {
		n := fuzzFrameHeader + int(binary.LittleEndian.Uint32(data[0:4]))
		if n < fuzzFrameHeader+fuzzPayload || n > len(data) {
			break
		}
		p := data[fuzzFrameHeader:n]
		recs = append(recs, store.Record{
			Kind:   store.Kind(p[0]),
			Remove: p[1]&1 != 0,
			Owner:  int32(binary.LittleEndian.Uint32(p[2:6])),
			Owned:  int32(binary.LittleEndian.Uint32(p[6:10])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(p[10:18])),
		})
		data = data[n:]
	}
	return recs
}

// FuzzApply drives the one write path with arbitrary record batches, each
// record applied as a new write to a small seeded site. Apply must never
// panic; a rejected or unchanging record must leave the partition bytes
// and the epoch unchanged; the in-nodes must stay the keys of the foreign
// owner sets; the reachability sets Apply repairs must equal a fresh
// BuildReach after every accepted record; and recovery's replay of the
// changing records, each with the epoch it moved the site to as its seq,
// into a fresh partition from the original's first epoch must rebuild the
// same bytes and epoch.
func FuzzApply(f *testing.F) {
	f.Add(encodeFuzzRecords([]store.Record{
		{Kind: store.KindStake, Owner: 0, Owned: 5, Weight: 0.4},
		{Kind: store.KindStake, Owner: 0, Owned: 33, Weight: 1.5},
		{Kind: store.KindStake, Owner: 0, Owned: -1, Weight: 0.2},
		{Kind: store.KindStake, Owner: 9, Owned: 2, Weight: 0.1},
		{Kind: store.KindStake, Owner: 9, Owned: 2, Remove: true},
		{Kind: 2, Owned: 2},
		{Kind: store.KindStake, Owner: 0, Owned: 5, Remove: true},
	}))
	// This batch gives the fuzzer members, foreign and fresh ids, clamps and
	// foreign owners added twice and removed to recombine.
	f.Add(encodeFuzzRecords([]store.Record{
		{Kind: store.KindStake, Owner: 2, Owned: 4, Weight: 1},
		{Kind: store.KindStake, Owner: 2, Owned: 4, Weight: 1},
		{Kind: store.KindStake, Owner: 4, Owned: 7, Weight: 0.3},
		{Kind: store.KindStake, Owner: 4, Owned: 7, Weight: 0.3},
		{Kind: store.KindStake, Owner: 6, Owned: 39, Weight: 0.6},
		{Kind: store.KindStake, Owner: 6, Owned: 39, Weight: 0.6, Remove: true},
		{Kind: store.KindStake, Owner: 4, Owned: 4, Weight: 0.2},
		{Kind: store.KindStake, Owner: 3, Owned: 4, Weight: 0.2},
		{Kind: store.KindStake, Owner: 5, Owned: 4, Weight: 0.1},
		{Kind: store.KindStake, Owner: 5, Owned: 4, Weight: 0.1},
		{Kind: store.KindStake, Owner: 3, Owned: 4, Remove: true},
		{Kind: store.KindStake, Owner: 7, Owned: 5, Weight: 0.1},
		{Kind: store.KindStake, Owner: 7, Owned: 6, Weight: 0.1},
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
		s := site(t)
		base := s.Epoch()
		var accepted []store.Record
		for _, rec := range decodeFuzzRecords(data) {
			if rec.Owner >= fuzzIDs {
				rec.Owner %= fuzzIDs
			}
			if rec.Owned >= fuzzIDs {
				rec.Owned %= fuzzIDs
			}
			before, epoch := partBytes(t, s), s.Epoch()
			res, err := s.Apply(rec)
			if err != nil || !res.Changed {
				if !bytes.Equal(before, partBytes(t, s)) || s.Epoch() != epoch {
					t.Fatalf("rejected or unchanging %+v (%v) changed the site", rec, err)
				}
				continue
			}
			if len(s.part.InNodes) != len(s.part.CrossIn) {
				t.Fatalf("after %+v: in-nodes %v, foreign owners %v", rec, s.part.InNodes, s.part.CrossIn)
			}
			for v := range s.part.CrossIn {
				if !s.part.InNodes.Has(v) || !s.part.Members.Has(v) {
					t.Fatalf("after %+v: %d has foreign owners but is no in-node member", rec, v)
				}
			}
			sameReach(t, fmt.Sprintf("after %+v", rec), s)
			rec.Seq = s.Epoch()
			accepted = append(accepted, rec)
		}
		// The replay starts from the base the records were numbered from, as
		// recovery starts from its checkpoint's sequence number.
		p, err := seed()
		if err != nil {
			t.Fatal(err)
		}
		epoch := base
		for _, rec := range accepted {
			if err := replay(p, rec, &epoch); err != nil {
				t.Fatalf("replaying accepted %+v: %v", rec, err)
			}
		}
		if r := NewSite(p, 1); !bytes.Equal(partBytes(t, s), partBytes(t, r)) || s.Epoch() != epoch {
			t.Fatalf("replaying %d accepted records diverged: epoch %d, want %d", len(accepted), epoch, s.Epoch())
		}
	})
}

// FuzzServeConn feeds arbitrary bytes to Server.serveConn — the gob decoder
// and dispatch every site runs on its socket — over an in-memory pipe to a
// small site. serveConn must not panic, must close the connection once the
// bytes run out, and must leave the server answering a well-formed evaluate
// on a fresh connection as the site itself would. The fresh site of each
// input takes the input's writes through opApply. An apply naming an
// unbounded company id would size the partition's id space to it
// (gigabytes), a resource limit and not a serving bug, so inputs carrying
// one are skipped, as FuzzApply folds its ids.
func FuzzServeConn(f *testing.F) {
	var valid bytes.Buffer
	enc := gob.NewEncoder(&valid)
	for _, req := range []*request{
		{ID: 1, Op: opEvaluate, S: 0, T: 1, UseCache: true, DeadlineNS: int64(time.Second)},
		{ID: 2, Op: opInfo},
		{ID: 3, Op: opPrecompute},
		{ID: 4, Op: opApply, Record: store.Record{Kind: store.KindStake, Owner: 0, Owned: 2, Weight: 0.3}},
		{ID: 5, Op: 5},
		{ID: 6, Op: 6},
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
		dec := gob.NewDecoder(bytes.NewReader(data))
		for {
			var req request
			if dec.Decode(&req) != nil {
				break
			}
			if req.Op == opApply && (req.Record.Owner >= fuzzIDs || req.Record.Owned >= fuzzIDs) {
				t.Skip("apply names a company id over the fuzzing bound")
			}
		}
		site := testSite(t)
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
		want, err := site.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer want.Release()
		if resp.ID != 9 || resp.Err != "" || control.Answer(resp.Ans) != want.Ans {
			t.Fatalf("fresh connection: evaluate(0,1) answered %+v, the site answers %v", resp, want.Ans)
		}
	})
}

// fuzzMaxID bounds the largest live id a fuzzed CCPG1 payload may list: the
// decoder sizes the graph to one past it, so one id near 2^31 could ask for
// gigabytes, a resource limit and not a decoding bug. The header's capacity
// sizes nothing and is not bounded.
const fuzzMaxID = 1 << 16

// largestLiveID reads the last id of a CCPG1 payload's live-id list, or 0 if
// the payload lists none.
func largestLiveID(data []byte) uint32 {
	const head = 14 // magic, capacity, live count
	if len(data) < head {
		return 0
	}
	n := binary.LittleEndian.Uint32(data[head-4:])
	if n == 0 || uint64(len(data)) < head+4*uint64(n) {
		return 0
	}
	return binary.LittleEndian.Uint32(data[head+4*int(n)-4:])
}

// FuzzDecodePartialMerge feeds arbitrary CCPG1 payloads through
// decodePartial, as a live partial into pooled scratch or as a cached one,
// and the accepted graph through the coordinator's dense merge, alone and on
// top of a cached copy. Nothing may panic, and each merge must hold exactly the
// nodes, edges and labels graph.Merge gives, renumbered by an ascending
// table, with the same cached aggregates.
func FuzzDecodePartialMerge(f *testing.F) {
	encode := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	sparse := graph.New(90)
	for _, e := range []graph.Edge{{From: 0, To: 3, Weight: 0.7}, {From: 3, To: 89, Weight: 0.4},
		{From: 40, To: 3, Weight: 0.2}, {From: 7, To: 40, Weight: 1}} {
		if err := sparse.AddEdge(e.From, e.To, e.Weight); err != nil {
			f.Fatal(err)
		}
	}
	for v := graph.NodeID(8); v < 40; v++ {
		sparse.RemoveNode(v)
	}
	f.Add(encode(sparse), false)
	f.Add(encode(sparse), true)
	f.Add(encode(graph.New(0)), false)
	f.Add(encode(benchMergeInputs(f).live[0]), false)
	f.Add([]byte("CCPG1\n"), true)

	// The cached copy shares ids, and the edge 0→3, with the sparse seed.
	base := graph.New(50)
	for _, e := range []graph.Edge{{From: 0, To: 3, Weight: 0.3}, {From: 41, To: 0, Weight: 0.6}} {
		if err := base.AddEdge(e.From, e.To, e.Weight); err != nil {
			f.Fatal(err)
		}
	}
	for v := graph.NodeID(4); v < 41; v++ {
		base.RemoveNode(v)
	}
	copyOfBase := compact(base)
	f.Fuzz(func(t *testing.T, data []byte, cached bool) {
		if largestLiveID(data) > fuzzMaxID {
			return
		}
		var pool sync.Pool
		pa, err := decodePartial(&response{Ans: int8(control.Unknown), FromCache: cached, GraphBytes: data}, &pool)
		if err != nil || pa.Reduced == nil {
			return
		}
		sameMerge(t, compact(pa.Reduced), globalMerge(pa.Reduced))
		part, _ := sparsePart(pa.Reduced, nil)
		var mg denseGraph
		for i := 0; i < 2; i++ { // fresh, then reused scratch
			mergeInto(&mg, []denseGraph{copyOfBase, part})
			sameMerge(t, mg, globalMerge(base, pa.Reduced))
		}
		pa.Release()
	})
}

// sameMerge fails unless d holds exactly want's live nodes under an ascending
// table, want's edges with bit-equal labels, and want's cached aggregates.
func sameMerge(t *testing.T, d denseGraph, want *graph.Graph) {
	t.Helper()
	if d.g.Cap() != len(d.ids) || d.g.NumNodes() != want.NumNodes() || d.g.NumEdges() != want.NumEdges() {
		t.Fatalf("dense merge %v over %d ids, global merge %v", d.g, len(d.ids), want)
	}
	for i, v := range d.ids {
		if (i > 0 && v <= d.ids[i-1]) || !want.Alive(v) {
			t.Fatalf("table %v: id %d out of order or not in the global merge", d.ids, v)
		}
		l := graph.NodeID(i)
		d.g.EachOut(l, func(u graph.NodeID, w float64) {
			if ww, ok := want.Label(v, d.ids[u]); !ok || math.Float64bits(ww) != math.Float64bits(w) {
				t.Fatalf("edge %d→%d: dense label %v, global %v (present %v)", v, d.ids[u], w, ww, ok)
			}
		})
		if math.Abs(d.g.InSum(l)-want.InSum(v)) > 1e-12 || d.g.HasControllingOut(l) != want.HasControllingOut(v) {
			t.Fatalf("node %d: dense aggregates disagree with the global merge", v)
		}
		if c := d.g.DirectController(l); (c == graph.None) != (want.DirectController(v) == graph.None) ||
			(c != graph.None && d.ids[c] != want.DirectController(v)) {
			t.Fatalf("node %d: dense controller %d, global %d", v, c, want.DirectController(v))
		}
	}
}
