package audit

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
)

func TestCheckStablePassesImmediately(t *testing.T) {
	calls := 0
	r := CheckStable(5, func() ([]int64, Result) {
		calls++
		return []int64{1, 2}, OK("fine")
	})
	if !r.OK || calls != 1 {
		t.Fatalf("got %+v after %d calls, want immediate pass", r, calls)
	}
}

func TestCheckStableQuiescentMismatchIsViolation(t *testing.T) {
	r := CheckStable(5, func() ([]int64, Result) {
		return []int64{3, 4}, Violation("3 != 4")
	})
	if r.OK {
		t.Fatalf("quiescent mismatch reported OK: %+v", r)
	}
	if r.Detail != "3 != 4" {
		t.Fatalf("detail = %q", r.Detail)
	}
}

func TestCheckStableMovingMismatchIsTransient(t *testing.T) {
	var n int64
	r := CheckStable(3, func() ([]int64, Result) {
		n++
		return []int64{n}, Violation("never settles")
	})
	if !r.OK {
		t.Fatalf("moving mismatch reported as violation: %+v", r)
	}
}

func TestCheckStableRecovers(t *testing.T) {
	calls := 0
	r := CheckStable(5, func() ([]int64, Result) {
		calls++
		if calls < 3 {
			return []int64{int64(calls)}, Violation("mid-update")
		}
		return []int64{99}, OK("settled")
	})
	if !r.OK || r.Detail != "settled" {
		t.Fatalf("got %+v, want recovery to OK", r)
	}
}

// probeCounters digs the audit series for one probe out of the registry.
func probeCounters(t *testing.T, reg *obs.Registry, probe string) (runs, viols float64, ok float64) {
	t.Helper()
	for _, v := range reg.Snapshot() {
		if v.Labels != `probe="`+probe+`"` {
			continue
		}
		switch v.Name {
		case "ccp_audit_probe_runs_total":
			runs = v.Value
		case "ccp_audit_violations_total":
			viols = v.Value
		case "ccp_audit_probe_ok":
			ok = v.Value
		}
	}
	return
}

func TestAuditorRunAllAndMetrics(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	a := New(Config{Observer: o})
	defer a.Close()

	var fail atomic.Bool
	a.Register(Probe{Name: "always.green", Check: func() Result { return OK("steady") }})
	a.Register(Probe{Name: "injectable", Check: func() Result {
		if fail.Load() {
			return Violation("injected breakage")
		}
		return OK("clear")
	}})

	rep := a.RunAll()
	if !rep.OK || len(rep.Probes) != 2 {
		t.Fatalf("healthy report = %+v", rep)
	}

	fail.Store(true)
	rep = a.RunAll()
	if rep.OK {
		t.Fatal("report OK with an injected violation")
	}
	var found bool
	for _, p := range rep.Probes {
		if p.Probe == "injectable" {
			found = true
			if p.OK || p.Detail != "injected breakage" || p.Violations != 1 {
				t.Fatalf("probe report = %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("injectable probe missing from report")
	}
	runs, viols, okG := probeCounters(t, o.Registry(), "injectable")
	if runs != 2 || viols != 1 || okG != 0 {
		t.Fatalf("series runs=%v viols=%v ok=%v, want 2/1/0", runs, viols, okG)
	}

	// The flight event edge-triggers: staying in violation records nothing
	// new, recovering and re-violating records a second event.
	countViolEvents := func() int {
		n := 0
		for _, e := range o.Flight().Snapshot().Events {
			if e.Type == flight.AuditViolation {
				n++
			}
		}
		return n
	}
	if got := countViolEvents(); got != 1 {
		t.Fatalf("%d audit.violation flight events after first breach, want 1", got)
	}
	a.RunAll()
	if got := countViolEvents(); got != 1 {
		t.Fatalf("%d events while still breached, want 1 (edge-triggered)", got)
	}
	fail.Store(false)
	a.RunAll()
	fail.Store(true)
	a.RunAll()
	if got := countViolEvents(); got != 2 {
		t.Fatalf("%d events after recover + re-breach, want 2", got)
	}
}

func TestAuditorBackgroundLoop(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	a := New(Config{Observer: o})
	a.interval = time.Millisecond
	var runs atomic.Int64
	a.Register(Probe{Name: "ticking", Check: func() Result {
		runs.Add(1)
		return OK("")
	}})
	a.Start()
	deadline := time.Now().Add(2 * time.Second)
	for runs.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Close()
	if runs.Load() < 3 {
		t.Fatalf("background loop ran the probe %d times, want >= 3", runs.Load())
	}
	a.Close() // idempotent
}

func TestCloseWithoutStart(t *testing.T) {
	a := New(Config{})
	a.Register(Probe{Name: "p", Check: func() Result { return OK("") }})
	a.Close() // must not hang or panic
}

func TestAuditHandlerStatusCodes(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	a := New(Config{Observer: o})
	defer a.Close()
	var fail atomic.Bool
	a.Register(Probe{Name: "flip", Check: func() Result {
		if fail.Load() {
			return Violation("broken")
		}
		return OK("")
	}})
	srv := httptest.NewServer(a.AuditHandler())
	defer srv.Close()

	get := func() (int, Report) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}
	if code, rep := get(); code != http.StatusOK || !rep.OK {
		t.Fatalf("healthy: code %d report %+v", code, rep)
	}
	fail.Store(true)
	if code, rep := get(); code != http.StatusInternalServerError || rep.OK {
		t.Fatalf("violated: code %d report %+v", code, rep)
	}
}

func TestNilSafety(t *testing.T) {
	var a *Auditor
	a.Register(Probe{Name: "x", Check: func() Result { return OK("") }})
	if rep := a.RunAll(); !rep.OK {
		t.Fatal("nil auditor reports violation")
	}
	a.Start()
	a.Close()
}
