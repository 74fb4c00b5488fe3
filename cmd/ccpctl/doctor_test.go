package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccp/internal/dist"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/audit"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestDoctorDetectsWALCorruption drives the full path the issue demands: a
// real durable site with real WAL bytes behind a real ops endpoint, green
// under doctor; one flipped byte later the store.scrub probe fires and
// doctor exits nonzero naming it.
func TestDoctorDetectsWALCorruption(t *testing.T) {
	dir := t.TempDir()
	g := gen.Random(60, 180, 2)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	site, err := dist.OpenDurableSite(dir,
		func() (*partition.Partition, error) { return pi.Parts[0].Snapshot(), nil },
		1, store.Options{NoSync: true, CheckpointEvery: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("opening durable site: %v", err)
	}
	defer site.CloseStore()
	for i := 0; i < 40; i++ {
		up := dist.StakeUpdate{
			Owner:  graph.NodeID(i % 30),
			Owned:  graph.NodeID(30 + i%29),
			Weight: 0.05,
		}
		if _, err := site.ApplyEdgeUpdate(up); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	observer := obs.NewObserver(obs.ObserverConfig{})
	auditor := audit.New(audit.Config{Observer: observer})
	auditor.Register(site.StoreScrubProbe(0))
	defer auditor.Close()
	srv := httptest.NewServer(obs.Handler(observer, nil, auditor.Endpoints()...))
	defer srv.Close()

	out := captureStdout(t, func() {
		if err := cmdDoctor([]string{"-ops", srv.URL}); err != nil {
			t.Errorf("healthy cluster: doctor returned %v", err)
		}
	})
	if !strings.Contains(out, "store.scrub") || !strings.Contains(out, "GREEN") {
		t.Fatalf("healthy output missing green store.scrub row:\n%s", out)
	}

	// One scrub pass has run (via /audit above), so the WAL is flushed to
	// disk. Flip a byte mid-log — recovery would now fail on this frame.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, 100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var derr error
	out = captureStdout(t, func() { derr = cmdDoctor([]string{"-ops", srv.URL}) })
	if derr == nil {
		t.Fatal("doctor exited zero over a corrupted WAL")
	}
	if !strings.Contains(out, "store.scrub") || !strings.Contains(out, "RED") {
		t.Fatalf("corruption output missing red store.scrub row:\n%s", out)
	}
	if !strings.Contains(out, "corrupt frame") {
		t.Fatalf("violation detail not surfaced:\n%s", out)
	}
}

// varz builds a varzDoc from (name, labels, value) triples.
func varz(series ...[3]any) varzDoc {
	var doc varzDoc
	for _, s := range series {
		doc.Metrics = append(doc.Metrics, obs.VarSnapshot{
			Name:   s[0].(string),
			Type:   "gauge",
			Labels: s[1].(string),
			Value:  float64(s[2].(int)),
		})
	}
	return doc
}

// TestDoctorDetectsCachedEpochAhead injects an impossible cache through
// saved doctor documents: a coordinator holding site 0's partial at an
// epoch the site never reached. Only the cluster-wide join can see it, and
// it must turn the run red.
func TestDoctorDetectsCachedEpochAhead(t *testing.T) {
	writeDocs := func(t *testing.T, docs []doctorDoc) string {
		t.Helper()
		data, err := json.Marshal(docs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "docs.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	site := doctorDoc{Addr: "site:9001", Varz: varz([3]any{"ccp_site_epoch", `site="0"`, 100})}
	coord := func(cached int) doctorDoc {
		return doctorDoc{Addr: "coord:9002", Varz: varz(
			[3]any{"ccp_queries_total", "", 10},
			[3]any{"ccp_coord_cached_epoch", `site="0"`, cached})}
	}

	healthy := writeDocs(t, []doctorDoc{site, coord(100)})
	out := captureStdout(t, func() {
		if err := cmdDoctor([]string{"-in", healthy}); err != nil {
			t.Errorf("consistent cache: doctor returned %v", err)
		}
	})
	if !strings.Contains(out, "cache-epoch:site0") || !strings.Contains(out, "GREEN") {
		t.Fatalf("healthy output missing green cache-epoch row:\n%s", out)
	}

	ahead := writeDocs(t, []doctorDoc{site, coord(120)})
	var derr error
	out = captureStdout(t, func() { derr = cmdDoctor([]string{"-in", ahead}) })
	if derr == nil {
		t.Fatal("doctor exited zero over a cached epoch ahead of its site")
	}
	if !strings.Contains(out, "cache-epoch:site0") || !strings.Contains(out, "RED") ||
		!strings.Contains(out, "ahead of site 0") {
		t.Fatalf("cached epoch ahead not named:\n%s", out)
	}
}

func TestRunDoctorCrossChecks(t *testing.T) {
	site := doctorDoc{Addr: "site:1", Varz: varz([3]any{"ccp_site_epoch", `site="0"`, 50})}

	t.Run("cached epoch ahead of site", func(t *testing.T) {
		coord := doctorDoc{Addr: "coord:1", Varz: varz(
			[3]any{"ccp_queries_total", "", 10},
			[3]any{"ccp_coord_cached_epoch", `site="0"`, 60})}
		findings := runDoctor([]doctorDoc{site, coord})
		want := findingWith(findings, "cache-epoch:site0")
		if want == nil || want.Status != statusRed || !strings.Contains(want.Detail, "ahead of site") {
			t.Fatalf("finding = %+v", want)
		}
	})
	t.Run("cached epoch within site", func(t *testing.T) {
		coord := doctorDoc{Addr: "coord:1", Varz: varz(
			[3]any{"ccp_queries_total", "", 10},
			[3]any{"ccp_coord_cached_epoch", `site="0"`, 40})}
		findings := runDoctor([]doctorDoc{site, coord})
		want := findingWith(findings, "cache-epoch:site0")
		if want == nil || want.Status != statusGreen {
			t.Fatalf("finding = %+v", want)
		}
	})
	t.Run("impossible gate accounting", func(t *testing.T) {
		coord := doctorDoc{Addr: "coord:1", Varz: varz(
			[3]any{"ccp_queries_total", "", 10},
			[3]any{"ccp_admission_offered_total", "", 5},
			[3]any{"ccp_admission_admitted_total", "", 6})}
		findings := runDoctor([]doctorDoc{coord})
		want := findingWith(findings, "gate")
		if want == nil || want.Status != statusRed || !strings.Contains(want.Detail, "exceeds offered") {
			t.Fatalf("finding = %+v", want)
		}
	})
	t.Run("mixed build versions are yellow", func(t *testing.T) {
		a := doctorDoc{Addr: "a:1", Varz: varz([3]any{"ccp_build_info", `go_version="go1.22",role="site",version="abc"`, 1})}
		b := doctorDoc{Addr: "b:1", Varz: varz([3]any{"ccp_build_info", `go_version="go1.22",role="coordinator",version="def"`, 1})}
		findings := runDoctor([]doctorDoc{a, b})
		want := findingWith(findings, "build")
		if want == nil || want.Status != statusYellow || !strings.Contains(want.Detail, "mixed build versions") {
			t.Fatalf("finding = %+v", want)
		}
	})
	t.Run("unreachable process is red", func(t *testing.T) {
		findings := runDoctor([]doctorDoc{{Addr: "gone:1", Err: "connection refused"}})
		want := findingWith(findings, "scrape")
		if want == nil || want.Status != statusRed {
			t.Fatalf("finding = %+v", want)
		}
	})
	t.Run("audit violation is red and named", func(t *testing.T) {
		doc := doctorDoc{Addr: "site:1", Audit: &audit.Report{OK: false, Probes: []audit.ProbeReport{
			{Probe: "store.scrub", OK: false, Detail: "wal segment x: corrupt frame at offset 7", Runs: 3, Violations: 1},
		}}}
		findings := runDoctor([]doctorDoc{doc})
		want := findingWith(findings, "probe:store.scrub")
		if want == nil || want.Status != statusRed || !strings.Contains(want.Detail, "corrupt frame") {
			t.Fatalf("finding = %+v", want)
		}
	})
}

func findingWith(findings []doctorFinding, check string) *doctorFinding {
	for i := range findings {
		if findings[i].Check == check {
			return &findings[i]
		}
	}
	return nil
}

func TestDoctorFlagValidation(t *testing.T) {
	if err := cmdDoctor(nil); err == nil {
		t.Fatal("doctor with no inputs accepted")
	}
	if err := cmdDoctor([]string{"-in", "/nonexistent/docs.json"}); err == nil {
		t.Fatal("missing -in file accepted")
	}
}
