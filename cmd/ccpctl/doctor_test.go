package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/partition"
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

// TestDoctorLiveCluster runs doctor over a live in-process cluster: three
// sites and a caching coordinator, each process behind its own ops handler.
// Queries between sites 0 and 1 leave the coordinator holding site 2's
// partial answer (a site that holds neither endpoint is served from its
// cached core), so the cross-process epoch check has a live copy to judge.
func TestDoctorLiveCluster(t *testing.T) {
	g := gen.Random(90, 270, 3)
	pi, err := partition.ByContiguous(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(o *obs.Observer) string {
		srv := httptest.NewServer(obs.Handler(o, nil))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	var addrs []string
	clients := make([]dist.SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		o := obs.NewObserver(obs.ObserverConfig{})
		site := dist.NewSite(p, 1)
		site.Observe(o)
		clients[i] = &dist.LocalClient{Site: site}
		addrs = append(addrs, serve(o))
	}
	co := obs.NewObserver(obs.ObserverConfig{})
	coord := dist.NewCoordinator(clients, dist.Options{UseCache: true, Observer: co})
	addrs = append(addrs, serve(co))

	members := func(p *partition.Partition) []graph.NodeID {
		var ids []graph.NodeID
		for v := range p.Members {
			ids = append(ids, v)
		}
		slices.Sort(ids)
		return ids
	}
	from, to := members(pi.Parts[0]), members(pi.Parts[1])
	for i := 0; i < 40; i++ {
		q := control.Query{S: from[i%len(from)], T: to[(7*i)%len(to)]}
		if _, _, err := coord.Answer(context.Background(), q); err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
	}

	out := captureStdout(t, func() {
		if err := cmdDoctor([]string{"-ops", strings.Join(addrs, ",")}); err != nil {
			t.Errorf("healthy live cluster: doctor returned %v", err)
		}
	})
	wantLines(t, out, "doctor: 4 processes", "0 red, 0 yellow")
	if !regexp.MustCompile(`cluster +cache-epoch:site2 +GREEN `).MatchString(out) {
		t.Fatalf("no green cache-epoch row for site 2:\n%s", out)
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
	t.Run("no cached copy is not judged", func(t *testing.T) {
		coord := doctorDoc{Addr: "coord:1", Varz: varz(
			[3]any{"ccp_queries_total", "", 10},
			[3]any{"ccp_coord_cached_epoch", `site="0"`, -1})}
		if f := findingWith(runDoctor([]doctorDoc{site, coord}), "cache-epoch:site0"); f != nil {
			t.Fatalf("finding for a site with no cached copy: %+v", f)
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
