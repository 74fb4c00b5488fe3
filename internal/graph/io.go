package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
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
// (From, To)) so that serialized forms are reproducible.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.nEdges)
	for i, m := range g.out {
		if !g.alive[i] {
			continue
		}
		for v, w := range m {
			es = append(es, Edge{NodeID(i), v, w})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
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
// count, edges as (from, to, weight) triples.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [8]byte
	writeU32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], x)
		_, err := bw.Write(buf[:4])
		return err
	}
	if err := writeU32(uint32(len(g.alive))); err != nil {
		return err
	}
	if err := writeU32(uint32(g.nAlive)); err != nil {
		return err
	}
	for i, ok := range g.alive {
		if !ok {
			continue
		}
		if err := writeU32(uint32(i)); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(g.nEdges)); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if err := writeU32(uint32(e.From)); err != nil {
			return err
		}
		if err := writeU32(uint32(e.To)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Weight))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
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

// DecodeBinary parses a CCPG1 payload held wholly in memory, as produced by
// WriteBinary. It is the allocation-lean path for wire decoding: the payload
// is indexed directly, with no reader or buffered copies.
func DecodeBinary(data []byte) (*Graph, error) {
	return DecodeBinaryInto(nil, data)
}

// DecodeBinaryInto parses a CCPG1 payload into dst, reusing dst's slices and
// edge maps; a nil dst allocates a fresh graph. The header's capacity only
// bounds the ids: the decoded graph's Cap is one past its largest live id,
// so a header cannot size a graph beyond the ids the payload lists.
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
		g.sizeTo(int(size))
		g.Reset()
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
