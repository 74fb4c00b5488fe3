package partition

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

func TestPartitionBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(60)
		g := gen.Random(n, rng.Intn(4*n), rng.Int63())
		k := 1 + rng.Intn(4)
		assign := make([]int, g.Cap())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		pi, err := Split(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pi.Parts {
			var buf bytes.Buffer
			if err := p.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			q, err := ReadPartition(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if q.ID != p.ID {
				t.Fatalf("identity lost: %+v vs %+v", q.ID, p.ID)
			}
			if !graph.Equal(p.Local, q.Local, 0) {
				t.Fatal("local graph changed")
			}
			for name, pair := range map[string][2]graph.NodeSet{
				"members": {p.Members, q.Members},
				"virtual": {p.Virtual, q.Virtual},
				"innodes": {p.InNodes, q.InNodes},
			} {
				a, b := pair[0], pair[1]
				if len(a) != len(b) {
					t.Fatalf("%s: %v vs %v", name, a, b)
				}
				for v := range a {
					if !b.Has(v) {
						t.Fatalf("%s: missing %d", name, v)
					}
				}
			}
			if !maps.EqualFunc(p.CrossIn, q.CrossIn, maps.Equal) {
				t.Fatalf("foreign owners: %v vs %v", p.CrossIn, q.CrossIn)
			}
		}
	}
}

func TestReadPartitionRejectsGarbage(t *testing.T) {
	if _, err := ReadPartition(strings.NewReader("nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPartition(strings.NewReader("")); err == nil {
		t.Fatal("empty accepted")
	}
	// Truncated after valid magic.
	var buf bytes.Buffer
	g := gen.Random(10, 15, 1)
	pi, err := ByHash(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.Parts[0].WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadPartition(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated accepted")
	}
}

// TestReadPartitionRejectsRepeatedLiveIDs: the local graph goes through the
// one CCPG1 decoder, so a live-id list that repeats is refused here too (as
// it is for checkpoints and bootstrap images, which load via ReadPartition).
func TestReadPartitionRejectsRepeatedLiveIDs(t *testing.T) {
	pi, err := ByHash(gen.Random(10, 15, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := pi.Parts[0]
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Swap the trailing local graph for cap=4, nAlive=2, ids=[1,1], edges=0.
	bad := buf.Bytes()[:int64(buf.Len())-p.Local.BinarySize()]
	bad = append(bad, "CCPG1\n"...)
	for _, x := range []uint32{4, 2, 1, 1, 0} {
		bad = binary.LittleEndian.AppendUint32(bad, x)
	}
	if _, err := ReadPartition(bytes.NewReader(bad)); err == nil {
		t.Fatal("partition with a repeated live id accepted")
	}
}
