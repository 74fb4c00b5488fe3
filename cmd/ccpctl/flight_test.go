package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

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
