package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// decodeBinary parses a CCPG1 payload held wholly in memory into a fresh
// graph: the reference the pooled decodes are checked against.
func decodeBinary(data []byte) (*Graph, error) {
	return DecodeBinaryInto(nil, data)
}

// randomGraph builds a valid random ownership graph for round-trip tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	budget := make([]float64, n)
	for i := range budget {
		budget[i] = 1
	}
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := rng.Float64() * budget[v]
		if w <= 0.001 {
			continue
		}
		if err := g.AddEdge(u, v, w); err == nil {
			budget[v] -= w
		}
	}
	// Punch some holes so dead ids round-trip too.
	for i := 0; i < n/10; i++ {
		g.RemoveNode(NodeID(rng.Intn(n)))
	}
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(60), rng.Intn(150))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !Equal(g, h, 0) {
			t.Fatalf("trial %d: binary round-trip changed the graph", trial)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a graph at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload after a valid magic.
	var buf bytes.Buffer
	g := New(3)
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// TestBinaryRejectsRepeatedLiveIDs: a live-id list that repeats or descends
// used to decode (through ReadBinary) into a graph whose NumNodes exceeded
// its live nodes and whose re-encoding no longer decoded.
func TestBinaryRejectsRepeatedLiveIDs(t *testing.T) {
	for name, payload := range map[string][]byte{
		"repeated":   edgelessPayload(4, 1, 1),
		"descending": edgelessPayload(4, 2, 1),
	} {
		if g, err := ReadBinary(bytes.NewReader(payload)); err == nil {
			t.Errorf("%s: ReadBinary accepted it with NumNodes()=%d", name, g.NumNodes())
		}
		if _, err := decodeBinary(payload); err == nil {
			t.Errorf("%s: decodeBinary accepted it", name)
		}
	}
}

// TestBinaryDecodeSizedByPayload: the header's capacity bounds ids but does
// not size the graph. A payload claiming 2^32-1 slots decodes to a graph one
// past its largest live id, with allocation proportional to the payload, and
// a 14-byte header claiming that many live ids is rejected before anything
// is sized.
func TestBinaryDecodeSizedByPayload(t *testing.T) {
	const huge = 1<<32 - 1
	for _, tc := range []struct {
		name    string
		payload []byte
		cap     int // -1: rejected
	}{
		{"no live ids", edgelessPayload(huge), 0},
		{"one live id", edgelessPayload(huge, 10), 11},
		{"live count past the payload", edgelessPayload(huge)[:14], -1},
		{"id at the capacity", edgelessPayload(1000, 1000), -1},
		{"id past NodeID", edgelessPayload(huge, 1<<31), -1},
	} {
		if tc.name == "live count past the payload" {
			tc.payload[13] = 0xff // nAlive = 0xff000000
		}
		var g *Graph
		var err error
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, dst := range []*Graph{nil, New(3)} {
			if g, err = DecodeBinaryInto(dst, tc.payload); (err == nil) != (tc.cap >= 0) {
				t.Fatalf("%s: err = %v", tc.name, err)
			}
		}
		runtime.ReadMemStats(&ms1)
		if b := ms1.TotalAlloc - ms0.TotalAlloc; b > 1<<16 {
			t.Fatalf("%s: decoding a %d-byte payload allocated %d bytes", tc.name, len(tc.payload), b)
		}
		if err == nil && (g.Cap() != tc.cap || g.NumNodes() != min(tc.cap, 1)) {
			t.Fatalf("%s: decoded %v, want cap %d", tc.name, g, tc.cap)
		}
	}
}

// TestBinarySizeMatchesWriteBinary pins the O(1) size formula to the bytes
// WriteBinary emits, with dead ids and after node removals.
func TestBinarySizeMatchesWriteBinary(t *testing.T) {
	check := func(g *Graph, what string) {
		t.Helper()
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if got := g.BinarySize(); got != int64(buf.Len()) {
			t.Fatalf("%s: BinarySize() = %d, WriteBinary wrote %d", what, got, buf.Len())
		}
	}
	check(New(0), "empty")
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Intn(250))
		check(g, "random")
		for i := 0; i < n/3; i++ {
			g.RemoveNode(NodeID(rng.Intn(n)))
		}
		check(g, "after RemoveNode")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := New(5)
	for _, e := range []Edge{{0, 1, 0.6}, {1, 2, 0.25}, {3, 2, 0.5}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	// Node 4 is isolated and must survive the round trip.
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 3 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	if w, ok := h.Label(0, 1); !ok || w != 0.6 {
		t.Fatalf("label(0,1) = %g,%v", w, ok)
	}
	if !h.Alive(4) {
		t.Fatal("isolated node lost")
	}
}

func TestCSVParsing(t *testing.T) {
	in := `# ownership
0,1,0.6

1,2,0.3
0,1,0.2
`
	g, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Parallel edges merge.
	if w, _ := g.Label(0, 1); w != 0.8 {
		t.Fatalf("merged label = %g", w)
	}
	bad := []string{
		"0,1",           // too few fields
		"a,1,0.5",       // bad source
		"0,b,0.5",       // bad target
		"0,1,zap",       // bad weight
		"0,1,1.5",       // label out of range
		"1,1,0.5",       // self loop
		"0,1,0.5,extra", // too many fields
	}
	for _, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadCSV(%q) accepted", s)
		}
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(4)
	for _, e := range []Edge{{2, 0, 0.1}, {0, 3, 0.2}, {0, 1, 0.3}, {1, 2, 0.4}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	es := g.Edges()
	for i := 1; i < len(es); i++ {
		if es[i-1].From > es[i].From ||
			(es[i-1].From == es[i].From && es[i-1].To >= es[i].To) {
			t.Fatalf("edges out of order: %v", es)
		}
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 0.3}, {0, 1, 0.3}, {1, 2, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.Label(0, 1); w != 0.6 {
		t.Fatalf("merged = %g", w)
	}
	if _, err := FromEdges(2, []Edge{{0, 5, 0.3}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

// TestQuickBinaryRoundTrip drives the binary codec with random graphs.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8, m uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+int(n%64), int(m%256))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return Equal(g, h, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
