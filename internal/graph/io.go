package graph

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Edge is one ownership relation, used for bulk construction and wire
// transfer of (sub)graphs.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Edges returns all live edges. The order is deterministic (sorted by
// (From, To)) so that serialized forms are reproducible. Its cost follows the
// live nodes and their edges, not the id space (see nextLive).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.nEdges)
	n := len(g.alive)
	for i := g.nextLive(0, n); i < n; i = g.nextLive(i+1, n) {
		for v, w := range g.out[i] {
			es = append(es, Edge{NodeID(i), v, w})
		}
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return es
}

// FromEdges builds a graph over ids 0..n-1 from an edge list, merging
// parallel edges by summing labels.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.MergeEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// binaryMagic identifies the compact binary graph format.
const binaryMagic = "CCPG1\n"

// WriteBinary serializes the graph in a compact binary format that preserves
// node ids (including dead ids, which are simply absent from the node list).
// The format is: magic, capacity, live-node count, sorted live ids, edge
// count, edges as (from, to, weight) triples sorted by (from, to). It makes
// one Write of the whole payload, built by AppendBinary.
func (g *Graph) WriteBinary(w io.Writer) error {
	_, err := w.Write(g.AppendBinary(make([]byte, 0, g.BinarySize())))
	return err
}

// AppendBinary appends the WriteBinary encoding of g to b and returns the
// extended slice. It walks the live ids only, so
// encoding a partial that holds a few nodes of a large id space costs those
// nodes and their edges. A b with BinarySize spare capacity is not regrown.
func (g *Graph) AppendBinary(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(append(b, binaryMagic...), uint32(len(g.alive)))
	b = le.AppendUint32(b, uint32(g.nAlive))
	n := len(g.alive)
	for i := g.nextLive(0, n); i < n; i = g.nextLive(i+1, n) {
		b = le.AppendUint32(b, uint32(i))
	}
	b = le.AppendUint32(b, uint32(g.nEdges))
	succ := make([]NodeID, 0, 64) // on the stack unless a node has more successors
	for i := g.nextLive(0, n); i < n; i = g.nextLive(i+1, n) {
		succ = succ[:0]
		for v := range g.out[i] {
			succ = append(succ, v)
		}
		slices.Sort(succ)
		for _, v := range succ {
			b = le.AppendUint32(le.AppendUint32(b, uint32(i)), uint32(v))
			b = le.AppendUint64(b, math.Float64bits(g.out[i][v]))
		}
	}
	return b
}

// BinarySize returns the number of bytes WriteBinary emits for g: the
// magic and three counts, 4 bytes per live id, 16 per edge.
func (g *Graph) BinarySize() int64 {
	return int64(len(binaryMagic)) + 12 + 4*int64(g.nAlive) + 16*int64(g.nEdges)
}

// ReadBinary deserializes a graph written by WriteBinary. It reads r to the
// end and decodes with DecodeBinaryInto, the one CCPG1 decoder.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading CCPG1 payload: %w", err)
	}
	return DecodeBinaryInto(nil, data)
}

// DecodeBinaryInto parses a CCPG1 payload into dst, reusing dst's slices and
// edge maps; a nil dst allocates a fresh graph. The header's capacity only
// bounds the ids: the decoded graph's Cap is one past its largest live id,
// so a header cannot size a graph beyond the ids the payload lists. Emptying
// dst visits only the live nodes it held and the ids a growth reveals (see
// emptyTo), so a pooled decode costs the previous contents, the payload and
// any growth, not the id space its ids are numbered in.
// Trailing bytes are ignored; a live-id list that is not strictly ascending
// is rejected. On error the destination's contents are unspecified and it
// must not be returned to a pool. A pooled dst cycling through same-shaped
// payloads decodes without allocating.
func DecodeBinaryInto(dst *Graph, data []byte) (*Graph, error) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, errors.New("graph: bad magic, not a CCPG1 payload")
	}
	off := len(binaryMagic)
	u32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, io.ErrUnexpectedEOF
		}
		x := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return x, nil
	}
	capacity, err := u32()
	if err != nil {
		return nil, err
	}
	nAlive, err := u32()
	if err != nil {
		return nil, err
	}
	if nAlive > capacity {
		return nil, fmt.Errorf("graph: live count %d exceeds capacity %d", nAlive, capacity)
	}
	// Check the live ids before sizing anything: the graph spans the largest
	// one, not the capacity the header claims.
	if uint64(len(data)-off) < 4*uint64(nAlive) {
		return nil, io.ErrUnexpectedEOF
	}
	ids := off
	size := uint32(0)
	for i := uint32(0); i < nAlive; i++ {
		id, _ := u32() // in bounds: the length is checked above
		if id >= capacity || id > math.MaxInt32 {
			return nil, fmt.Errorf("graph: node id %d out of range", id)
		}
		// The format lists live ids sorted; a repeat would leave nAlive
		// above the number of live nodes.
		if id < size {
			return nil, fmt.Errorf("graph: live id %d after %d, not ascending", id, size-1)
		}
		size = id + 1
	}
	g := dst
	if g == nil {
		g = newShell(int(size))
	} else {
		g.emptyTo(int(size))
	}
	for i := uint32(0); i < nAlive; i++ {
		g.alive[binary.LittleEndian.Uint32(data[ids+4*int(i):])] = true
	}
	g.nAlive = int(nAlive)
	nEdges, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nEdges; i++ {
		from, err := u32()
		if err != nil {
			return nil, err
		}
		to, err := u32()
		if err != nil {
			return nil, err
		}
		if off+8 > len(data) {
			return nil, io.ErrUnexpectedEOF
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		if err := g.AddEdge(NodeID(from), NodeID(to), w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// WriteCSV writes the graph as "from,to,weight" lines. Node ids of isolated
// live nodes are written as "from,," lines so that the graph round-trips.
func (g *Graph) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d,%d,%s\n", e.From, e.To,
			strconv.FormatFloat(e.Weight, 'g', -1, 64)); err != nil {
			return err
		}
	}
	for i, ok := range g.alive {
		if ok && len(g.out[i]) == 0 && len(g.in[i]) == 0 {
			if _, err := fmt.Fprintf(bw, "%d,,\n", i); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses "from,to,weight" lines as written by WriteCSV. Blank lines
// and lines starting with '#' are skipped. Parallel edges are merged.
func ReadCSV(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	type rec struct {
		from, to NodeID
		w        float64
		isolated bool
	}
	var recs []rec
	maxID := NodeID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 fields, got %d", lineNo, len(parts))
		}
		from, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id: %w", lineNo, err)
		}
		if NodeID(from) > maxID {
			maxID = NodeID(from)
		}
		if strings.TrimSpace(parts[1]) == "" {
			recs = append(recs, rec{from: NodeID(from), isolated: true})
			continue
		}
		to, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id: %w", lineNo, err)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
		}
		if NodeID(to) > maxID {
			maxID = NodeID(to)
		}
		recs = append(recs, rec{from: NodeID(from), to: NodeID(to), w: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(int(maxID) + 1)
	for _, r := range recs {
		if r.isolated {
			continue
		}
		if err := g.MergeEdge(r.from, r.to, r.w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Equal reports whether g and h have the same live nodes and the same edges
// with labels equal within eps.
func Equal(g, h *Graph, eps float64) bool {
	if g.nAlive != h.nAlive || g.nEdges != h.nEdges {
		return false
	}
	for i, ok := range g.alive {
		v := NodeID(i)
		if ok != h.Alive(v) {
			return false
		}
		if !ok {
			continue
		}
		if len(g.out[i]) != h.OutDegree(v) {
			return false
		}
		for u, w := range g.out[i] {
			hw, okh := h.Label(v, u)
			if !okh || math.Abs(hw-w) > eps {
				return false
			}
		}
	}
	return true
}
