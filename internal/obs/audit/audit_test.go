package audit

import (
	"encoding/json"
	"math"
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

func TestSLOBurnRateAndBudget(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	a := New(Config{Observer: o})
	defer a.Close()

	var good, total atomic.Int64
	s := a.RegisterSLO(SLOConfig{
		Name:      "avail",
		Objective: 0.9, // budget rate 0.1: burn = errRate * 10
		Source: func() (float64, float64) {
			return float64(good.Load()), float64(total.Load())
		},
	})
	base := time.Now()

	// 1000 events, 50 bad: error rate 0.05 over the window -> burn 0.5.
	good.Store(950)
	total.Store(1000)
	s.advance(a.o, base.Add(time.Minute))
	s.mu.Lock()
	fast, slow, budget := s.fast, s.slow, s.budget
	s.mu.Unlock()
	if fast < 0.49 || fast > 0.51 {
		t.Fatalf("fast burn = %v, want ~0.5", fast)
	}
	if slow < 0.49 || slow > 0.51 {
		t.Fatalf("slow burn = %v, want ~0.5", slow)
	}
	// budget: allowed = 1000*0.1 = 100 errors, 50 spent -> 0.5 left.
	if budget < 0.49 || budget > 0.51 {
		t.Fatalf("budget = %v, want ~0.5", budget)
	}
	if s.breaches.Value() != 0 {
		t.Fatalf("breached at burn 0.5: %d", s.breaches.Value())
	}

	// Another 100 events, all bad: budget 100 allowed vs 150 spent goes
	// negative -> breach fires once.
	total.Store(1100)
	s.advance(a.o, base.Add(2*time.Minute))
	s.mu.Lock()
	budget, breached := s.budget, s.breached
	s.mu.Unlock()
	if budget > 0 || !breached {
		t.Fatalf("budget = %v breached = %v, want exhausted", budget, breached)
	}
	if s.breaches.Value() != 1 {
		t.Fatalf("breaches = %d, want 1", s.breaches.Value())
	}
	s.advance(a.o, base.Add(3*time.Minute)) // still breached: no re-fire
	if s.breaches.Value() != 1 {
		t.Fatalf("breaches = %d after staying breached, want 1 (edge-triggered)", s.breaches.Value())
	}
	var sloEvents int
	for _, e := range o.Flight().Snapshot().Events {
		if e.Type == flight.SLOBreach {
			sloEvents++
		}
	}
	if sloEvents != 1 {
		t.Fatalf("%d slo.breach flight events, want 1", sloEvents)
	}
}

func TestSLOMultiWindowBreachNeedsBothWindows(t *testing.T) {
	a := New(Config{Observer: obs.NewObserver(obs.ObserverConfig{})})
	defer a.Close()
	var good, total float64
	s := a.RegisterSLO(SLOConfig{
		Name:      "latency",
		Objective: 0.99, // budget rate 0.01
		Source:    func() (float64, float64) { return good, total },
	})
	// Three clean hours at 10k events a minute, then a 5-minute spike at
	// 20% errors: the fast window (5m) burns 20x on the spike alone, while
	// the slow window (1h), diluted by 55 clean minutes, burns ~1.7x and
	// the 24h budget keeps ~44% left.
	base := time.Now()
	for m := 1; m <= 3*60+5; m++ {
		total += 10000
		if m > 3*60 {
			good += 8000
		} else {
			good += 10000
		}
		s.advance(a.o, base.Add(time.Duration(m)*time.Minute))
	}
	s.mu.Lock()
	fast, slow, budget, breached := s.fast, s.slow, s.budget, s.breached
	s.mu.Unlock()
	if fast < fastBurn {
		t.Fatalf("fast burn = %v, want >= %v", fast, fastBurn)
	}
	if slow >= slowBurn {
		t.Fatalf("slow burn = %v, want diluted below %v", slow, slowBurn)
	}
	if budget <= 0 {
		t.Fatalf("budget = %v, want some left", budget)
	}
	if breached {
		t.Fatal("breached on a single-window burn; multi-window alerting requires both")
	}
}

// TestSLOStatusReadsDoNotMutate: reading an SLO is not a tick. However often
// /audit is polled, the ring keeps its samples and a breach visible only to
// the fresh read is reported, not edge-fired.
func TestSLOStatusReadsDoNotMutate(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	a := New(Config{Observer: o})
	defer a.Close()
	var good, total float64
	s := a.RegisterSLO(SLOConfig{
		Name:      "avail",
		Objective: 0.999,
		Source:    func() (float64, float64) { return good, total },
	})
	good, total = 100, 100
	s.advance(a.o, time.Now().Add(time.Minute))
	s.mu.Lock()
	ring := append([]sample(nil), s.ring...)
	s.mu.Unlock()

	total = 1100 // 1000 failures since the last tick
	var rep []SLOReport
	for i := 0; i < 10000; i++ {
		rep = a.SLOStatus()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) != len(ring) {
		t.Fatalf("10000 reads changed the ring from %d to %d samples", len(ring), len(s.ring))
	}
	for i := range ring {
		if s.ring[i] != ring[i] {
			t.Fatalf("ring sample %d changed: %+v -> %+v", i, ring[i], s.ring[i])
		}
	}
	if n := s.breaches.Value(); n != 0 {
		t.Fatalf("reads fired %d breaches, want 0 (only ticks edge-trigger)", n)
	}
	for _, e := range o.Flight().Snapshot().Events {
		if e.Type == flight.SLOBreach {
			t.Fatal("a read recorded an slo.breach flight event")
		}
	}
	if len(rep) != 1 || !rep[0].Breached || rep[0].BudgetRemaining > 0 {
		t.Fatalf("fresh read missed the exhausted budget: %+v", rep)
	}
}

// TestSLORetentionCoversBudgetWindow ticks every 5s for 30h with errors only
// in hours 8-12. The 24h budget window [6h, 30h] holds them, so the budget
// must be computed from a sample at least 24h old and show them spent.
func TestSLORetentionCoversBudgetWindow(t *testing.T) {
	a := New(Config{Observer: obs.NewObserver(obs.ObserverConfig{})})
	defer a.Close()
	var good, total float64
	s := a.RegisterSLO(SLOConfig{
		Name:      "avail",
		Objective: 0.99, // 1 bad in 100 spends the budget at exactly 1x
		Source:    func() (float64, float64) { return good, total },
	})
	const tick = 5 * time.Second
	base := time.Now()
	var now time.Time
	for k := 1; k <= int(30*time.Hour/tick); k++ {
		now = base.Add(time.Duration(k) * tick)
		total += 100
		good += 100
		if h := time.Duration(k) * tick; h > 8*time.Hour && h <= 12*time.Hour {
			good-- // 1% errors for 4 of the window's 24 hours
		}
		s.advance(a.o, now)
	}
	s.mu.Lock()
	oldest, n, budget := s.ring[0].at, len(s.ring), s.budget
	s.mu.Unlock()
	if age := now.Sub(oldest); age < 24*time.Hour {
		t.Fatalf("oldest retained sample is %v old, want >= 24h", age)
	}
	if n > maxSamples+1 {
		t.Fatalf("ring holds %d samples, want <= %d", n, maxSamples+1)
	}
	// 4h of 1% errors in a 24h window at a 1% budget: 1/6 spent.
	if want := 1 - 4.0/24; math.Abs(budget-want) > 0.01 {
		t.Fatalf("budget = %v, want ~%v", budget, want)
	}
}

func TestSLOStatusAndHandler(t *testing.T) {
	a := New(Config{Observer: obs.NewObserver(obs.ObserverConfig{})})
	defer a.Close()
	a.Register(Probe{Name: "green", Check: func() Result { return OK("") }})
	var good, total float64
	a.RegisterSLO(SLOConfig{
		Name:   "avail",
		Source: func() (float64, float64) { return good, total },
	})
	good, total = 99, 100
	reports := a.SLOStatus()
	if len(reports) != 1 || reports[0].SLO != "avail" || reports[0].Total != 100 {
		t.Fatalf("SLOStatus = %+v", reports)
	}
	if reports[0].Objective != 0.999 {
		t.Fatalf("defaulted objective = %v", reports[0].Objective)
	}

	// /audit carries the SLOs beside the probes; an exhausted budget does
	// not turn the status 500, only a probe violation does.
	srv := httptest.NewServer(a.AuditHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rep.OK || len(rep.Probes) != 1 {
		t.Fatalf("/audit = %d %+v", resp.StatusCode, rep)
	}
	if len(rep.SLOs) != 1 || rep.SLOs[0].SLO != "avail" || !rep.SLOs[0].Breached {
		t.Fatalf("/audit slos = %+v", rep.SLOs)
	}
}

func TestNilSafety(t *testing.T) {
	var a *Auditor
	a.Register(Probe{Name: "x", Check: func() Result { return OK("") }})
	if s := a.RegisterSLO(SLOConfig{Name: "x", Source: func() (float64, float64) { return 0, 0 }}); s != nil {
		t.Fatal("RegisterSLO on nil auditor returned a live SLO")
	}
	if rep := a.RunAll(); !rep.OK {
		t.Fatal("nil auditor reports violation")
	}
	if st := a.SLOStatus(); st != nil {
		t.Fatal("nil auditor returned SLO reports")
	}
	a.Start()
	a.Close()
}
