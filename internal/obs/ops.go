package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"ccp/internal/obs/flight"
)

// HealthFunc reports a component's liveness: ok selects the HTTP status
// (200 vs 503) and detail is rendered as the JSON body.
type HealthFunc func() (ok bool, detail any)

// OpsServer is the operational HTTP endpoint of a ccpd / ccpcoord process:
//
//	/metrics      Prometheus text exposition of the registry
//	/healthz      200/503 + JSON detail from the HealthFunc
//	/varz         JSON snapshot of every series (+ the ring's slow.query events)
//	/debug/flight the flight ring's snapshot
//	/debug/pprof  the standard Go profiling handlers
//
// It binds eagerly (so a bad -ops-addr fails at startup, not at first
// scrape) and shuts down gracefully alongside the process's main drain.
type OpsServer struct {
	l    net.Listener
	srv  *http.Server
	done chan error
}

// StartOps binds addr and serves the operational endpoints in a background
// goroutine until Shutdown. health may be nil (always healthy, no detail);
// o may be nil (empty metrics, empty ring).
func StartOps(addr string, o *Observer, health HealthFunc) (*OpsServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: cannot bind ops address %s: %w", addr, err)
	}
	s := &OpsServer{
		l:    l,
		srv:  &http.Server{Handler: Handler(o, health), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *OpsServer) Addr() string { return s.l.Addr().String() }

// Shutdown stops the ops server gracefully, bounded by ctx. A nil server
// (ops disabled) has nothing to stop.
func (s *OpsServer) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done // Serve has returned; the listener is closed
	return err
}

// Handler builds the ops endpoint mux — exported so tests (and embedders
// with their own HTTP server) can mount it without a second listener.
func Handler(o *Observer, health HealthFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		ok, detail := true, any(nil)
		if health != nil {
			ok, detail = health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		status := "ok"
		if !ok {
			status = "degraded"
		}
		json.NewEncoder(w).Encode(map[string]any{"status": status, "detail": detail})
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"metrics":      o.Registry().Snapshot(),
			"slow_queries": slowQueries(o.Flight().Snapshot()),
		})
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Flight().Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// slowQueries lists the slow.query events of a flight dump, newest first. A
// busy ring may have overwritten some; the dump's Dropped says when.
func slowQueries(d flight.Dump) []flight.Event {
	out := []flight.Event{}
	for i := len(d.Events) - 1; i >= 0; i-- {
		if d.Events[i].Type == flight.SlowQuery {
			out = append(out, d.Events[i])
		}
	}
	return out
}
