package ccp

import (
	"io"
	"log/slog"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
)

// The observability surface of a deployment. One Observer is shared by a
// whole process and threaded into its components: ClusterOptions.Observer
// on the coordinator side, SiteServer.Observe on the worker side. Every
// component reports what happens through one call that emits a FlightEvent
// — a fixed-size record of when, which query, which site, what, and two
// operands — and the observer is where those events land: the metrics
// registry (each event type feeds the series bound to it: query latency
// histograms, per-phase timings, cache hit/miss counters, redials), the
// always-on flight ring, and the query's QueryTrace when the query is
// traced. A query whose latency reaches ObserverConfig.SlowQueryThreshold
// adds one slow.query event, with its id, to the ring. Timed layers
// (coord.answer, wire.rpc, site.evaluate, graph.clone, control.site_reduce,
// graph.merge, control.merge_reduce) are events whose first operand is their
// duration, named after the benchmark's per-layer rows. StartOpsServer
// exposes all of it over HTTP:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/healthz       200/503 + JSON detail from a HealthFunc
//	/varz          JSON snapshot of every series plus the ring's slow.query events
//	/debug/flight  the flight ring as a FlightDump (merge with `ccpctl flight`)
//	/debug/pprof   the standard Go profiling handlers
//
// All instrumentation is nil-safe: components holding no Observer run
// uninstrumented at the cost of pointer checks on the hot path.
type (
	// Observer bundles a process's metrics registry and flight ring.
	Observer = obs.Observer
	// ObserverConfig configures NewObserver; the zero value marks no query
	// slow.
	ObserverConfig = obs.ObserverConfig
	// MetricsRegistry is the concurrent metric collection behind an
	// Observer, exposed for custom series and direct Prometheus/JSON
	// rendering.
	MetricsRegistry = obs.Registry
	// QueryTrace is the stitched cross-site trace of one distributed query
	// that AnswerTraced asked for: its FlightEvent records from the
	// coordinator and every contacted site on one timeline; WriteTimeline
	// prints it.
	QueryTrace = obs.Trace
	// OpsServer is the operational HTTP endpoint started by StartOpsServer;
	// Shutdown on a nil one is a no-op.
	OpsServer = obs.OpsServer
	// HealthFunc feeds /healthz: ok selects 200 vs 503, detail is the JSON
	// body.
	HealthFunc = obs.HealthFunc
	// FlightRecorder is the always-on bounded ring of recent runtime events
	// an Observer carries; dump it via /debug/flight, SIGQUIT, or
	// FlightRecorder.Snapshot.
	FlightRecorder = flight.Recorder
	// FlightEvent is the one event type: what the flight ring and a
	// QueryTrace hold.
	FlightEvent = flight.Event
	// FlightDump is a point-in-time snapshot of a process's flight recorder,
	// the JSON shape served by /debug/flight and merged by `ccpctl flight`.
	FlightDump = flight.Dump
)

// NewObserver builds an observer with a fresh metrics registry and flight
// ring. With cfg.SlowQueryThreshold > 0, a query at or over it leaves one
// slow.query event in the ring and counts in ccp_slow_queries_total.
func NewObserver(cfg ObserverConfig) *Observer { return obs.NewObserver(cfg) }

// StartOpsServer binds addr (e.g. ":9090") and serves the operational
// endpoints for o in a background goroutine until Shutdown. health may be
// nil (always healthy); o may be nil (empty metrics).
func StartOpsServer(addr string, o *Observer, health HealthFunc) (*OpsServer, error) {
	return obs.StartOps(addr, o, health)
}

// RegisterBuildInfo exports the ccp_build_info gauge (build version, Go
// version, process role) on r. Every binary calls it so a scrape — or
// `ccpctl doctor` — can tell what is running where.
func RegisterBuildInfo(r *MetricsRegistry, role string) { obs.RegisterBuildInfo(r, role) }

// NewLogger builds a structured logger writing to w at the given level in
// the given format ("text" or "json"; "" = text) — the logger behind every
// binary's -log-level / -log-format flags.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// ParseLogLevel maps a -log-level flag value to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) { return obs.ParseLogLevel(s) }
