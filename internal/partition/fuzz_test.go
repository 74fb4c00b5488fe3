package partition

import (
	"bytes"
	"encoding/binary"
	"maps"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// fuzzMaxCap bounds the id capacity the embedded CCPG1 header may declare.
// The graph decoder sizes the graph from it before reading any id, so one
// four-byte field can ask for tens of gigabytes; that is the caller's
// resource limit to set, not a decoding bug (the graph package's fuzz
// targets skip the same inputs).
const fuzzMaxCap = 1 << 16

// graphCap reads the capacity field of the CCPG1 payload embedded in a
// CCPP2 image, or 0 if the image ends before it.
func graphCap(data []byte) uint32 {
	off := uint64(len(partitionMagic)) + 4 // id
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

// samePartition reports whether a and b hold the same identity, boundary
// bookkeeping and local graph.
func samePartition(a, b *Partition) bool {
	return a.ID == b.ID &&
		maps.Equal(a.Members, b.Members) && maps.Equal(a.Virtual, b.Virtual) &&
		maps.Equal(a.InNodes, b.InNodes) && maps.EqualFunc(a.CrossIn, b.CrossIn, maps.Equal) &&
		graph.Equal(a.Local, b.Local, 0) && graph.Equal(b.Local, a.Local, 0)
}

// FuzzReadPartition throws mutated CCPP2 images at ReadPartition, the
// decoder checkpoint load runs. It must reject
// or accept, never panic, and an accepted image must re-encode to bytes
// that decode to an equal partition.
func FuzzReadPartition(f *testing.F) {
	pi, err := ByHash(gen.Random(12, 30, 7), 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range pi.Parts {
		var buf bytes.Buffer
		if err := p.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if graphCap(data) > fuzzMaxCap {
			t.Skip("declared capacity over the fuzzing bound")
		}
		p, err := ReadPartition(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.WriteBinary(&buf); err != nil {
			t.Fatalf("accepted image cannot encode: %v", err)
		}
		q, err := ReadPartition(&buf)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if !samePartition(p, q) {
			t.Fatal("round trip changed an accepted partition")
		}
	})
}
