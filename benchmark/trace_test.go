package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	r := newRecorder()
	// Spans set by hand: a 100 ns root with two site calls overlapping on
	// [10,60) ∪ [40,80) and a merge on [80,95); 15 ns are the root's own.
	r.spans = []span{
		{ID: 1, Name: "mirror.answer", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "site.rpc", StartNS: 40, EndNS: 80},
		{ID: 3, Parent: 1, Name: "site.rpc", StartNS: 10, EndNS: 60},
		{ID: 4, Parent: 1, Name: "graph.merge", StartNS: 80, EndNS: 95},
		{ID: 5, Name: "mirror.answer", StartNS: 100, EndNS: 130},
		{ID: 6, Parent: 5, Name: "site.rpc", StartNS: 100, EndNS: 130},
	}
	if got := r.selfNS(1); got != 15 {
		t.Errorf("self time of span 1 = %d ns, want 15", got)
	}
	if got := r.selfNS(5); got != 0 {
		t.Errorf("self time of span 5 = %d ns, want 0", got)
	}
}

func TestRecorderWritesEverySpanOnce(t *testing.T) {
	r := newRecorder()
	root := r.start("coord.answer", 0, 7)
	child := r.start("site.rpc", root, 7)
	if r.end(child) < 0 || r.end(root) < 0 {
		t.Fatal("negative duration")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Query != 7 || got[0].Name != "coord.answer" ||
		got[1].StartNS < got[0].StartNS || got[1].EndNS > got[0].EndNS {
		t.Errorf("trace file holds %+v", got)
	}
}
