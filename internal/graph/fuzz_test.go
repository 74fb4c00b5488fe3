package graph

import (
	"bytes"
	"encoding/binary"
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
	// Seed with a couple of valid graphs.
	for seed := int64(1); seed <= 3; seed++ {
		g := New(8)
		g.AddEdge(0, 1, 0.6)
		g.AddEdge(1, 2, 0.25)
		g.RemoveNode(5)
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Add(edgelessPayload(4, 1, 1)) // repeated live id: must be rejected
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		d, derr := DecodeBinary(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ReadBinary err=%v, DecodeBinary err=%v", err, derr)
		}
		if err != nil {
			return
		}
		if !Equal(g, d, 0) {
			t.Fatal("ReadBinary and DecodeBinary decoded different graphs")
		}
		live := 0
		for v := 0; v < g.Cap(); v++ {
			if g.Alive(NodeID(v)) {
				live++
			}
		}
		if g.NumNodes() != live {
			t.Fatalf("NumNodes() = %d, %d ids alive", g.NumNodes(), live)
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
