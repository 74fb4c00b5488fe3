package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one query share Query; Parent is the span that caused this
// one (0 for a root). Times are ns since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write puts them on disk once, at the end
// of the run. Safe for concurrent use (site calls of one query overlap).
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (r *recorder) start(name string, parent, query int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Query: query, Name: name, StartNS: now})
	return len(r.spans)
}

// end closes span id and returns its duration in ns.
func (r *recorder) end(id int) int64 {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.EndNS = now
	return now - sp.StartNS
}

// selfNS is the self time of span id: its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func (r *recorder) selfNS(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.spans[id-1]
	var kids []span
	// Children are recorded after their parent and before the next root.
	for _, sp := range r.spans[id:] {
		if sp.Parent == 0 {
			break
		}
		if sp.Parent == id {
			kids = append(kids, sp)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, upTo := int64(0), parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, upTo), min(k.EndNS, parent.EndNS)
		if hi > lo {
			covered += hi - lo
			upTo = hi
		}
	}
	return parent.EndNS - parent.StartNS - covered
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
