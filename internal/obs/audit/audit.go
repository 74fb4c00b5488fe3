// Package audit is the cluster's continuous verification layer: a registry
// of cheap invariant probes that subsystems register (store scrub, fleet
// divergence, gate accounting) plus a multi-window burn-rate SLO engine
// over the metrics the registry already exports.
//
// Probes run two ways: a background loop re-checks every probe on a fixed
// interval (so violations are counted and flight-recorded even when nobody
// is looking), and the /audit ops endpoint re-runs them on demand (so
// `ccpctl doctor` and tests always see fresh state, never a stale cache).
// Probes must therefore be cheap by contract — a handful of atomic loads, a
// bounded sample of disk frames — never a full scan.
//
// Live counters are updated by concurrent writers without any transaction
// around "the invariant", so a single read can catch a mid-update transient
// (an arrival the gate counted as offered but not yet as admitted). The
// CheckStable helper makes probes race-tolerant: it re-reads the involved
// counters and only reports a violation when the mismatch persists across
// reads during which nothing moved — a quiescent mismatch is a real
// accounting bug, a moving one is inflight work.
package audit

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
)

// Result is one probe evaluation. OK probes may still carry Detail (a
// one-line summary of what was checked, e.g. "scrubbed 4 segments, 2
// checkpoints"); violated probes must say which invariant broke and the
// values that broke it.
type Result struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// OK builds a passing result.
func OK(format string, args ...any) Result {
	return Result{OK: true, Detail: fmt.Sprintf(format, args...)}
}

// Violation builds a failing result naming the broken invariant.
func Violation(format string, args ...any) Result {
	return Result{OK: false, Detail: fmt.Sprintf(format, args...)}
}

// Probe is one registered invariant check. Check must be cheap and safe for
// concurrent use: it is called from the background loop, from every /audit
// request, and from tests, possibly at once.
type Probe struct {
	// Name identifies the probe ("store.scrub", "gate.accounting"); it is
	// the `probe` label on the audit metrics and the name `ccpctl doctor`
	// prints on violation.
	Name string
	// Check evaluates the invariant now.
	Check func() Result
}

// CheckStable evaluates an invariant over live counters, tolerating
// mid-update transients. read returns the involved counter values plus the
// verdict over them. CheckStable re-reads until either the check passes, or
// it fails twice in a row with *identical* counter values — quiescent, so
// the mismatch cannot be inflight work — or attempts run out (reported as
// passing, since a moving system never settled enough to judge).
// attempts <= 0 selects 5.
func CheckStable(attempts int, read func() (vals []int64, r Result)) Result {
	if attempts <= 0 {
		attempts = 5
	}
	var prev []int64
	var last Result
	for i := 0; i < attempts; i++ {
		vals, r := read()
		if r.OK {
			return r
		}
		if prev != nil && slices.Equal(prev, vals) {
			return r
		}
		prev, last = vals, r
		// Let inflight writers publish the rest of their deltas.
		runtime.Gosched()
		time.Sleep(200 * time.Microsecond)
	}
	return Result{OK: true, Detail: "transient (counters moving): " + last.Detail}
}

// Config configures an Auditor.
type Config struct {
	// Observer supplies the metrics registry and flight recorder. May be
	// nil (probes still run; nothing is exported).
	Observer *obs.Observer
}

// probeState is one registered probe plus its exported series.
type probeState struct {
	idx   int
	probe Probe
	runs  *obs.Counter
	viols *obs.Counter
	okG   *obs.Gauge

	mu       sync.Mutex
	breached bool // currently in violation (edge-triggers the flight event)
}

// Auditor is the per-process audit engine: the probe registry, the SLO
// engine, the background loop, and the /audit handler.
type Auditor struct {
	o        *obs.Observer
	interval time.Duration // background re-check period

	mu     sync.Mutex
	probes []*probeState
	slos   []*SLO

	loopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an Auditor. Call Register / RegisterSLO during process wiring,
// then Start to begin the background loop.
func New(cfg Config) *Auditor {
	return &Auditor{
		o:        cfg.Observer,
		interval: 5 * time.Second,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Register adds a probe. Safe to call before or after Start; nil-safe.
func (a *Auditor) Register(p Probe) {
	if a == nil || p.Check == nil {
		return
	}
	reg := a.o.Registry()
	lbl := obs.Label{Key: "probe", Value: p.Name}
	st := &probeState{
		probe: p,
		runs:  reg.Counter("ccp_audit_probe_runs_total", "Audit probe evaluations.", lbl),
		viols: reg.Counter("ccp_audit_violations_total", "Audit probe evaluations that found a violation.", lbl),
		okG:   reg.Gauge("ccp_audit_probe_ok", "1 when the probe's last evaluation passed.", lbl),
	}
	st.okG.Set(1) // innocent until first run
	a.mu.Lock()
	st.idx = len(a.probes)
	a.probes = append(a.probes, st)
	a.mu.Unlock()
}

// run evaluates one probe, updating its series and edge-triggering the
// flight event on an OK->violation transition.
func (a *Auditor) run(st *probeState) ProbeReport {
	r := st.probe.Check()
	st.runs.Inc()
	st.mu.Lock()
	if r.OK {
		st.okG.Set(1)
		st.breached = false
	} else {
		st.okG.Set(0)
		st.viols.Inc()
		if !st.breached {
			st.breached = true
			a.o.Flight().Record(flight.Event{Type: flight.AuditViolation, Site: -1, A1: int64(st.idx), A2: st.viols.Value()})
		}
	}
	st.mu.Unlock()
	return ProbeReport{
		Probe:      st.probe.Name,
		OK:         r.OK,
		Detail:     r.Detail,
		Runs:       st.runs.Value(),
		Violations: st.viols.Value(),
	}
}

// ProbeReport is the /audit JSON view of one probe.
type ProbeReport struct {
	Probe      string `json:"probe"`
	OK         bool   `json:"ok"`
	Detail     string `json:"detail,omitempty"`
	Runs       int64  `json:"runs"`
	Violations int64  `json:"violations"`
}

// Report is the /audit JSON payload: every probe's verdict and every SLO's
// budget. OK covers the probes only.
type Report struct {
	OK     bool          `json:"ok"`
	Probes []ProbeReport `json:"probes"`
	SLOs   []SLOReport   `json:"slos,omitempty"`
}

// RunAll evaluates every registered probe now and returns their report,
// without the SLOs. Nil-safe (reports trivially OK).
func (a *Auditor) RunAll() Report {
	rep := Report{OK: true}
	if a == nil {
		return rep
	}
	a.mu.Lock()
	probes := make([]*probeState, len(a.probes))
	copy(probes, a.probes)
	a.mu.Unlock()
	for _, st := range probes {
		pr := a.run(st)
		if !pr.OK {
			rep.OK = false
		}
		rep.Probes = append(rep.Probes, pr)
	}
	return rep
}

// Start launches the background loop: every 5s, re-run all probes and
// advance every SLO's sample ring. Idempotent; nil-safe.
func (a *Auditor) Start() {
	if a == nil {
		return
	}
	a.loopOnce.Do(func() {
		go func() {
			defer close(a.done)
			t := time.NewTicker(a.interval)
			defer t.Stop()
			for {
				select {
				case <-a.stop:
					return
				case now := <-t.C:
					a.RunAll()
					for _, s := range a.sloList() {
						s.advance(a.o, now)
					}
				}
			}
		}()
	})
}

// Close stops the background loop (if started). Nil-safe, idempotent.
func (a *Auditor) Close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.mu.Unlock()
	a.loopOnce.Do(func() { close(a.done) }) // loop never started
	<-a.done
}

// AuditHandler serves /audit: re-runs every probe, reads every SLO and
// writes the joined report. 200 when every probe passes, 500 when any is in
// violation (so a plain HTTP check can gate on it); SLO budgets do not move
// the status.
func (a *Auditor) AuditHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := a.RunAll()
		rep.SLOs = a.SLOStatus()
		w.Header().Set("Content-Type", "application/json")
		if !rep.OK {
			w.WriteHeader(http.StatusInternalServerError)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
}

// Endpoints returns the ops endpoints this auditor serves, ready to hand to
// obs.StartOps.
func (a *Auditor) Endpoints() []obs.Endpoint {
	return []obs.Endpoint{{Path: "/audit", Handler: a.AuditHandler()}}
}
