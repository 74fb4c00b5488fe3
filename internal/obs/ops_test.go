package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ccp/internal/obs/flight"
)

// startTestOps spins up an ops server on a free port and tears it down with
// the test.
func startTestOps(t *testing.T, o *Observer, health HealthFunc) string {
	t.Helper()
	s, err := StartOps("127.0.0.1:0", o, health)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + s.Addr()
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestOpsMetricsEndpoint(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	o.Registry().Counter("ccp_queries_total", "Queries answered.").Add(5)
	o.Registry().Histogram("ccp_query_seconds", "Latency.", DefaultLatencyBuckets).Observe(0.002)
	base := startTestOps(t, o, nil)

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	checkPrometheusText(t, body)
	if !strings.Contains(body, "ccp_queries_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, `ccp_query_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("/metrics missing histogram buckets:\n%s", body)
	}
}

func TestOpsHealthzEndpoint(t *testing.T) {
	healthy := true
	base := startTestOps(t, NewObserver(ObserverConfig{}), func() (bool, any) {
		return healthy, map[string]int{"sites": 4}
	})

	resp, body := get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status = %d, want 200", resp.StatusCode)
	}
	var payload struct {
		Status string          `json:"status"`
		Detail json.RawMessage `json:"detail"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("healthz body not JSON: %v\n%s", err, body)
	}
	if payload.Status != "ok" || !strings.Contains(string(payload.Detail), `"sites":4`) {
		t.Errorf("unexpected healthz payload: %s", body)
	}

	healthy = false
	resp, body = get(t, base+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, `"degraded"`) {
		t.Errorf("degraded body: %s", body)
	}
}

func TestOpsVarzEndpoint(t *testing.T) {
	o := NewObserver(ObserverConfig{SlowQueryThreshold: time.Nanosecond})
	o.Registry().Gauge("ccp_inflight", "In flight.").Set(2)
	var em Emitter
	em.Attach(o)
	for id := uint64(7); id <= 8; id++ {
		em.Emit(flight.CoordAnswer, -1, id, int64(time.Second), 0)
	}
	base := startTestOps(t, o, nil)

	resp, body := get(t, base+"/varz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/varz status = %d", resp.StatusCode)
	}
	var payload struct {
		Metrics     []VarSnapshot  `json:"metrics"`
		SlowQueries []flight.Event `json:"slow_queries"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("varz body not JSON: %v\n%s", err, body)
	}
	if len(payload.Metrics) != 1 || payload.Metrics[0].Name != "ccp_inflight" || payload.Metrics[0].Value != 2 {
		t.Errorf("unexpected varz metrics: %s", body)
	}
	// The ring's slow.query events, newest first.
	if sq := payload.SlowQueries; len(sq) != 2 || sq[0].Trace != 8 || sq[1].Trace != 7 || sq[0].Type != flight.SlowQuery {
		t.Errorf("unexpected varz slow queries: %s", body)
	}
}

func TestOpsPprofEndpoint(t *testing.T) {
	base := startTestOps(t, nil, nil)
	resp, body := get(t, base+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index looks wrong: %.120s", body)
	}
}

func TestOpsBindFailureIsEager(t *testing.T) {
	s, err := StartOps("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := StartOps(s.Addr(), nil, nil); err == nil {
		t.Fatal("binding an in-use address should fail at StartOps, not at first scrape")
	}
}
