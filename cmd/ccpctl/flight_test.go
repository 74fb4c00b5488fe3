package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
)

// dumpFile writes a flight dump for process name to a temp file.
func dumpFile(t *testing.T, dir, name string, events ...flight.Event) string {
	t.Helper()
	d := flight.Dump{Process: name, Events: events}
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdFlightMergesFilesAndOps(t *testing.T) {
	dir := t.TempDir()
	coord := dumpFile(t, dir, "coord",
		flight.Event{TS: 100, Trace: 7, Type: flight.QueryStart, Site: -1},
		flight.Event{TS: 400, Trace: 7, Type: flight.CoordAnswer, Site: -1})

	// A live "site" process behind an ops endpoint.
	rec := flight.New("site-0", 64)
	rec.Record(flight.Event{Type: flight.SiteEvaluate, Site: 0, Trace: 7, A1: 1000, A2: 0})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/flight" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(rec.Snapshot())
	}))
	defer srv.Close()

	if err := cmdFlight([]string{"-in", coord, "-ops", srv.URL}); err != nil {
		t.Fatal(err)
	}
	// Filtered by trace id (hex) still renders.
	if err := cmdFlight([]string{"-in", coord, "-trace", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdFlightErrors(t *testing.T) {
	if err := cmdFlight(nil); err == nil {
		t.Fatal("no sources accepted")
	}
	if err := cmdFlight([]string{"-in", "/nonexistent/dump.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if err := cmdFlight([]string{"-in", bad}); err == nil {
		t.Fatal("bad JSON accepted")
	}
	good := dumpFile(t, dir, "p", flight.Event{TS: 1, Type: flight.Update})
	if err := cmdFlight([]string{"-in", good, "-trace", "zz"}); err == nil {
		t.Fatal("bad trace id accepted")
	}
	if err := cmdFlight([]string{"-ops", "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable ops endpoint accepted")
	}
}

func TestCmdTop(t *testing.T) {
	hist := obs.NewHistogram(nil)
	hist.Observe(0.01)
	hs := hist.Snapshot()
	doc := varzDoc{Metrics: []obs.VarSnapshot{
		{Name: "ccp_queries_total", Type: "counter", Value: 42},
		{Name: "ccp_query_seconds", Type: "histogram", Hist: &hs},
		{Name: "ccp_coord_cache_hits_total", Type: "counter", Value: 30},
		{Name: "ccp_coord_cache_misses_total", Type: "counter", Value: 10},
		{Name: "ccp_client_circuit_state", Type: "gauge", Labels: `site_addr="a"`, Value: 0},
		{Name: "ccp_client_circuit_state", Type: "gauge", Labels: `site_addr="b"`, Value: 1},
		{Name: "ccp_reduce_rounds_total", Type: "counter", Value: 99},
	}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/varz" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"metrics": doc.Metrics})
	}))
	defer srv.Close()

	if err := cmdTop([]string{"-ops", srv.URL, "-n", "2", "-interval", "10ms"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTop(nil); err == nil {
		t.Fatal("missing -ops accepted")
	}
	// An unreachable endpoint is reported inline, not fatal: top keeps
	// refreshing the others.
	if err := cmdTop([]string{"-ops", "127.0.0.1:1", "-n", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestTopSampleHelpers(t *testing.T) {
	s := &topSample{vars: []obs.VarSnapshot{
		{Name: "c", Value: 1, Labels: `x="a"`},
		{Name: "c", Value: 2, Labels: `x="b"`},
		{Name: "ccp_client_circuit_state", Value: 2},
	}}
	if total, ok := s.sum("c"); !ok || total != 3 {
		t.Fatalf("sum = %v, %v", total, ok)
	}
	if _, ok := s.sum("missing"); ok {
		t.Fatal("missing series found")
	}
	closed, open, half := s.circuitCounts()
	if closed != 0 || open != 0 || half != 1 {
		t.Fatalf("circuits = %d/%d/%d", closed, open, half)
	}
}
