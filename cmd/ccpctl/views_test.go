package main

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ccp/internal/obs"
)

// fixture is a saved three-process cluster: a durable site 0, an in-memory
// site 1, and a coordinator with gate, connection and cache series (its
// third site, one not examined, is down).
const fixture = "testdata/cluster.json"

// doctorOut runs `ccpctl doctor -in fixture` with extra args and returns
// stdout, failing the test on an error.
func doctorOut(t *testing.T, args ...string) string {
	t.Helper()
	var err error
	out := captureStdout(t, func() { err = cmdDoctor(append([]string{"-in", fixture}, args...)) })
	if err != nil {
		t.Fatalf("doctor %v: %v\n%s", args, err, out)
	}
	return out
}

// wantColumns asserts the first line of a table is exactly the header.
func wantColumns(t *testing.T, out string, header ...string) {
	t.Helper()
	first, _, _ := strings.Cut(out, "\n")
	if got, want := strings.Fields(first), strings.Fields(strings.Join(header, " ")); !reflect.DeepEqual(got, want) {
		t.Fatalf("header %q, want columns %q", first, header)
	}
}

// wantLines asserts every substring appears in out, comparing with runs of
// spaces collapsed (table cells pad to their column).
func wantLines(t *testing.T, out string, subs ...string) {
	t.Helper()
	squash := regexp.MustCompile(` +`)
	norm := squash.ReplaceAllString(out, " ")
	for _, s := range subs {
		if !strings.Contains(norm, squash.ReplaceAllString(s, " ")) {
			t.Fatalf("output missing %q:\n%s", s, out)
		}
	}
}

// jsonKeys decodes one JSON object per line and returns each one's sorted
// key set alongside the decoded object.
func jsonKeys(t *testing.T, out string) ([][]string, []map[string]any) {
	t.Helper()
	var keys [][]string
	var objs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		var ks []string
		for k := range obj {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		keys, objs = append(keys, ks), append(objs, obj)
	}
	return keys, objs
}

func sorted(ks ...string) []string {
	sort.Strings(ks)
	return ks
}

func TestDoctorViewsRenderFixture(t *testing.T) {
	t.Run("checks", func(t *testing.T) {
		out := doctorOut(t)
		wantColumns(t, out, "SCOPE", "CHECK", "STATUS", "DETAIL")
		wantLines(t, out, "cache-epoch:site0", "cache-epoch:site1",
			"all processes at v1", "doctor: 3 processes", "0 red, 0 yellow")

		var findings []map[string]any
		if err := json.Unmarshal([]byte(strings.SplitN(doctorOut(t, "-json"), "\ndoctor:", 2)[0]), &findings); err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			var ks []string
			for k := range f {
				ks = append(ks, k)
			}
			if sort.Strings(ks); !reflect.DeepEqual(ks, sorted("scope", "check", "status", "detail")) {
				t.Fatalf("finding keys %v", ks)
			}
		}
	})

	t.Run("fleet", func(t *testing.T) {
		out := doctorOut(t, "-view", "fleet")
		wantColumns(t, out, "SITE", "ADDR", "EPOCH")
		lines := strings.Split(out, "\n")
		if got := strings.Fields(lines[1]); !reflect.DeepEqual(got, strings.Fields("0 site0:8001 42")) {
			t.Fatalf("site 0 row %q", lines[1])
		}
		if got := strings.Fields(lines[2]); !reflect.DeepEqual(got, strings.Fields("1 site1:8002 5")) {
			t.Fatalf("site 1 row %q", lines[2])
		}
		wantLines(t, out, "coordinator coord:8003:",
			"site site0:7001 connected", "site site1:7002 connected", "site site2:7003 down",
			"queries shed (admission) 3", "gate shed queue_full", "gate shed queue_wait")

		out = doctorOut(t, "-view", "fleet", "-json")
		keys, objs := jsonKeys(t, out)
		want := map[string][]string{
			"coordinator": sorted("addr", "role", "sites", "queries_shed", "gate_sheds"),
			"site":        sorted("addr", "role", "site", "epoch"),
		}
		if len(objs) != 3 {
			t.Fatalf("%d fleet objects, want 3:\n%s", len(objs), out)
		}
		for i, obj := range objs {
			if role := obj["role"].(string); !reflect.DeepEqual(keys[i], want[role]) {
				t.Fatalf("%s keys %v, want %v", role, keys[i], want[role])
			}
		}
		wantLines(t, out, `"epoch":42`, `"epoch":5`,
			`"sites":{"site0:7001":"connected","site1:7002":"connected","site2:7003":"down"}`,
			`"gate_sheds":{"queue_full":2,"queue_wait":1}`)
	})

	t.Run("store", func(t *testing.T) {
		out := doctorOut(t, "-view", "store")
		wantColumns(t, out, "SITE", "ADDR", "EPOCH", "DURABLE", "CKPT", "WAL TAIL", "CKPT AGE",
			"APPENDS", "FSYNCS", "CKPTS", "REPLAYED")
		row := strings.Split(out, "\n")[1]
		if got := strings.Fields(row); !reflect.DeepEqual(got, strings.Fields("0 site0:8001 42 42 40 2.0KiB 1m15s 42 10 2 3")) {
			t.Fatalf("store row %q", row)
		}
		for _, addr := range []string{"site1:8002", "coord:8003"} {
			wantLines(t, out, addr+" (in-memory, no durable store)")
		}

		keys, _ := jsonKeys(t, doctorOut(t, "-view", "store", "-json"))
		want := sorted("addr", "site", "epoch", "durable_seq", "checkpoint_seq", "wal_bytes",
			"checkpoint_age_seconds", "appends", "fsyncs", "checkpoints", "recovered_records")
		if len(keys) != 1 || !reflect.DeepEqual(keys[0], want) {
			t.Fatalf("store keys %v, want one row of %v", keys, want)
		}
	})

	t.Run("top", func(t *testing.T) {
		out := doctorOut(t, "-view", "top")
		wantLines(t, out, "ccp top — 3 endpoint(s)",
			"== site0:8001 ==", "served 120 reqs -", "site-cache 7 hits -", "reduce 30 reductions -",
			"== coord:8003 ==", "queries 200 total -", "latency   p50=", "p95=", "p99=", "(n=200)",
			"coord-cache  75.0% (30/40) hit", "sites 2 connected, 1 down")
		if err := cmdDoctor([]string{"-in", fixture, "-view", "top", "-json"}); err == nil {
			t.Fatal("-view top -json accepted")
		}
	})

	if err := cmdDoctor([]string{"-in", fixture, "-view", "nope"}); err == nil {
		t.Fatal("unknown view accepted")
	}
}

// TestTopViewRates: two top rounds against a live endpoint give per-second
// rates, and an unreachable endpoint is reported inline, not fatal.
func TestTopViewRates(t *testing.T) {
	observer := obs.NewObserver(obs.ObserverConfig{})
	served := observer.Registry().Counter("ccp_server_requests_total", "Requests served.")
	srv := httptest.NewServer(obs.Handler(observer, nil))
	defer srv.Close()

	out := captureStdout(t, func() {
		if err := cmdDoctor([]string{"-ops", srv.URL, "-view", "top"}); err != nil {
			t.Error(err)
		}
	})
	wantLines(t, out, "== "+srv.URL+" ==", "served 0 reqs -")

	client := srv.Client()
	prev, err := collect(client, []string{srv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	served.Add(10)
	cur, err := collect(client, []string{srv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { viewTop(cur, prev, false) })
	if !regexp.MustCompile(`served +10 reqs +[0-9.]+/s`).MatchString(out) {
		t.Fatalf("second round shows no rate:\n%s", out)
	}

	out = captureStdout(t, func() {
		if err := cmdDoctor([]string{"-ops", "127.0.0.1:1", "-view", "top"}); err != nil {
			t.Error(err)
		}
	})
	wantLines(t, out, "unreachable")
}
