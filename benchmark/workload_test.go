package main

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ccp/internal/graph"
)

// encodeWorkload flattens everything the program under test receives — the
// graph, the country assignment and the operation list — plus the oracle's
// answers.
func encodeWorkload(t *testing.T, w *workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.eu.G.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range w.eu.Country {
		binary.Write(&buf, binary.LittleEndian, int32(c))
	}
	for i, o := range w.ops {
		binary.Write(&buf, binary.LittleEndian, [3]int32{int32(o.Kind), int32(o.A), int32(o.B)})
		binary.Write(&buf, binary.LittleEndian, w.expected[i])
	}
	binary.Write(&buf, binary.LittleEndian, [2]int32{int32(w.setupQuery.S), int32(w.setupQuery.T)})
	return buf.Bytes()
}

// quarter is sp at a quarter of its queries: the full graph and pools, a
// shorter sequence, so that the whole file runs in about a second.
func quarter(t *testing.T, sp spec, seed int64) *workload {
	t.Helper()
	w, err := generate(sp, seed, sp.n/4)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkloadIsAPureFunctionOfSeedAndName(t *testing.T) {
	for _, sp := range specs {
		a, b := encodeWorkload(t, quarter(t, sp, 42)), encodeWorkload(t, quarter(t, sp, 42))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations at one seed differ", sp.name)
		}
		if bytes.Equal(a, encodeWorkload(t, quarter(t, sp, 43))) {
			t.Errorf("%s: seeds 42 and 43 give the same workload", sp.name)
		}
	}
	// xborder and update-mix share a graph; their sequences must not be one
	// another's prefix just because the seed is the same.
	x, u := quarter(t, specs[0], 42), quarter(t, specs[3], 42)
	if x.ops[0] == u.ops[1] && x.ops[1] == u.ops[2] {
		t.Error("xborder and update-mix draw the same queries")
	}
}

func TestUpdateMixPassRestoresTheGraph(t *testing.T) {
	sp, _ := specByName("update-mix")
	w := quarter(t, sp, 42)
	if w.updates == 0 || w.updates%2 != 0 || w.updates != w.queries/sp.updateEvery {
		t.Fatalf("updates = %d for %d queries", w.updates, w.queries)
	}
	g := w.eu.G.Clone()
	open := 0
	for i, o := range w.ops {
		switch o.Kind {
		case opAdd:
			if err := g.AddEdge(o.A, o.B, updateWeight); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if v, err := g.CheckOwnership(); err != nil {
				t.Fatalf("op %d over-sells company %d: %v", i, v, err)
			}
			open++
		case opRemove:
			if !g.RemoveEdge(o.A, o.B) {
				t.Fatalf("op %d removes a stake that is not there", i)
			}
			open--
		}
		if open < 0 || open > 1 {
			t.Fatalf("op %d: %d stakes open, pairs must not overlap", i, open)
		}
	}
	if open != 0 || !graph.Equal(g, w.eu.G, 0) {
		t.Error("a pass does not leave the edge multiset it started with")
	}
}

func TestTruncatedKeepsWholePairsAndAnswers(t *testing.T) {
	sp, _ := specByName("update-mix")
	w := quarter(t, sp, 42)
	c := w.truncated(20) // rounds down to 16: two whole add/remove pairs
	if c.queries != 16 || c.updates != 4 || len(c.ops) != 20 || len(c.expected) != 20 {
		t.Fatalf("truncated(20): %d queries, %d updates, %d ops", c.queries, c.updates, len(c.ops))
	}
	if last := c.ops[len(c.ops)-1]; last.Kind != opQuery {
		t.Error("a truncated sequence must end on a query, after the closing divestment")
	}
	if w.truncated(1<<20) != w {
		t.Error("truncating beyond the end must return the workload itself")
	}
}
