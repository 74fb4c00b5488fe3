package ccp_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ccp"
)

// TestObservabilityEndToEnd drives the whole public observability surface:
// an observed in-process cluster answers a traced query, and the ops server
// exposes the resulting metrics, health and slow queries over HTTP.
func TestObservabilityEndToEnd(t *testing.T) {
	g := ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: 2000, AvgOutDegree: 2, Seed: 31})
	o := ccp.NewObserver(ccp.ObserverConfig{SlowQueryThreshold: time.Nanosecond})
	cl, err := ccp.NewLocalCluster(g, 3, ccp.ClusterOptions{UseCache: true, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ans, m, tr, err := cl.ControlsTraced(context.Background(), 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := ccp.Controls(g, 0, 100)
	if ans != want {
		t.Fatalf("traced answer %v != single-machine %v", ans, want)
	}
	if tr == nil || len(tr.Events) == 0 {
		t.Fatalf("no trace events: %+v", tr)
	}
	if !strings.Contains(tr.Query, "controls(0,100)") {
		t.Errorf("trace query = %q", tr.Query)
	}
	var b strings.Builder
	if err := tr.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wire.rpc") {
		t.Errorf("trace timeline missing the rpc envelopes:\n%s", b.String())
	}
	_ = m

	ops, err := ccp.StartOpsServer("127.0.0.1:0", o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Shutdown(context.Background())

	scrape := func(path string) (int, string) {
		resp, err := http.Get("http://" + ops.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, metrics := scrape("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		"ccp_queries_total 1",
		"ccp_query_seconds_count 1",
		"ccp_site_evaluate_seconds_count",
		"ccp_site_reduce_seconds_count",
		"ccp_slow_queries_total 1",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	code, health := scrape("/healthz")
	if code != http.StatusOK || !strings.Contains(health, `"ok"`) {
		t.Errorf("/healthz = %d %s", code, health)
	}

	// The 1ns slow threshold marks the query with a slow.query event that
	// /varz lists by the query's id.
	code, varz := scrape("/varz")
	if code != http.StatusOK || !strings.Contains(varz, fmt.Sprintf(`"trace": %d`, tr.TraceID)) {
		t.Errorf("/varz = %d, no slow query with id %d in:\n%s", code, tr.TraceID, varz)
	}
}

// TestClusterUnobservedStillWorks pins the nil-observer configuration: no
// Observer anywhere, everything still answers.
func TestClusterUnobservedStillWorks(t *testing.T) {
	g := ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: 500, AvgOutDegree: 2, Seed: 8})
	cl, err := ccp.NewLocalCluster(g, 2, ccp.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ans, _, tr, err := cl.ControlsTraced(context.Background(), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("explicitly requested trace missing without an observer")
	}
	if want := ccp.Controls(g, 0, 50); ans != want {
		t.Fatalf("answer %v != %v", ans, want)
	}
}
