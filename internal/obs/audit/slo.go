package audit

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"ccp/internal/obs"
	"ccp/internal/obs/flight"
)

// SLOConfig declares one service-level objective over a cumulative
// (good, total) event pair — availability (successful queries / queries) or
// a latency target (observations under the target bucket / observations).
type SLOConfig struct {
	// Name labels the exported series ("availability", "latency_p99").
	Name string
	// Objective is the target good fraction, e.g. 0.999. Values outside
	// (0, 1) clamp to 0.999.
	Objective float64
	// Source reads the cumulative good and total event counts. Called on
	// every sample tick and on every /slo request; must be cheap.
	Source func() (good, total float64)
	// FastWindow / SlowWindow are the two burn-rate windows (multi-window
	// alerting: both must burn to count as a breach). Defaults 5m / 1h.
	FastWindow, SlowWindow time.Duration
	// FastBurn / SlowBurn are the burn-rate thresholds for the two windows.
	// Defaults 14.4 / 6 (the classic page-tier pair: 14.4x burns a 30-day
	// budget in 2 days; 6x in 5 days).
	FastBurn, SlowBurn float64
	// BudgetWindow is the horizon the error budget is measured over.
	// Default 24h. The engine keeps at most maxSamples samples, so with
	// very short sample intervals the effective horizon is the available
	// history.
	BudgetWindow time.Duration
}

// sample is one ring entry: the cumulative counts at a tick.
type sample struct {
	at          time.Time
	good, total float64
}

// maxSamples bounds each SLO's ring (24h at the default 5s interval would
// be 17k samples; 4096 keeps memory flat and still covers the slow window
// at any sane interval).
const maxSamples = 4096

// SLO is one objective's live state: the sample ring, current burn rates,
// and breach edge state.
type SLO struct {
	cfg      SLOConfig
	idx      int
	breaches *obs.Counter

	mu       sync.Mutex
	ring     []sample // time-ordered; bounded by maxSamples
	fast     float64  // last computed burn rates
	slow     float64
	budget   float64 // last computed budget remaining, 1 = untouched
	breached bool
}

// RegisterSLO adds an objective to the auditor's SLO engine and exports its
// ccp_slo_* series. Nil-safe.
func (a *Auditor) RegisterSLO(cfg SLOConfig) *SLO {
	if a == nil || cfg.Source == nil {
		return nil
	}
	if !(cfg.Objective > 0 && cfg.Objective < 1) {
		cfg.Objective = 0.999
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 5 * time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = time.Hour
	}
	if cfg.FastBurn <= 0 {
		cfg.FastBurn = 14.4
	}
	if cfg.SlowBurn <= 0 {
		cfg.SlowBurn = 6
	}
	if cfg.BudgetWindow <= 0 {
		cfg.BudgetWindow = 24 * time.Hour
	}
	reg := a.o.Registry()
	lbl := obs.Label{Key: "slo", Value: cfg.Name}
	s := &SLO{
		cfg:      cfg,
		breaches: reg.Counter("ccp_slo_breaches_total", "Transitions into multi-window burn-rate breach.", lbl),
		budget:   1,
	}
	s.ring = append(s.ring, s.read(time.Now()))
	reg.GaugeFunc("ccp_slo_objective", "Target good fraction of the SLO.",
		func() float64 { return cfg.Objective }, lbl)
	reg.GaugeFunc("ccp_slo_burn_rate", "Error-budget burn rate over the window (1 = exactly on budget).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.fast },
		lbl, obs.Label{Key: "window", Value: "fast"})
	reg.GaugeFunc("ccp_slo_burn_rate", "Error-budget burn rate over the window (1 = exactly on budget).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.slow },
		lbl, obs.Label{Key: "window", Value: "slow"})
	reg.GaugeFunc("ccp_slo_budget_remaining", "Fraction of the error budget left over the budget window (negative = exhausted).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.budget }, lbl)

	a.mu.Lock()
	s.idx = len(a.slos)
	a.slos = append(a.slos, s)
	a.mu.Unlock()
	return s
}

// read samples the source into a ring entry, clamping the counts monotone
// (a source computed from two counters can transiently run backwards).
func (s *SLO) read(now time.Time) sample {
	good, total := s.cfg.Source()
	if math.IsNaN(good) || good < 0 {
		good = 0
	}
	if math.IsNaN(total) || total < 0 {
		total = 0
	}
	if good > total {
		good = total
	}
	return sample{at: now, good: good, total: total}
}

// sampleSLOs advances every SLO ring; called from the auditor loop.
func (a *Auditor) sampleSLOs(now time.Time) {
	a.mu.Lock()
	slos := make([]*SLO, len(a.slos))
	copy(slos, a.slos)
	a.mu.Unlock()
	for _, s := range slos {
		s.advance(a.o, now)
	}
}

// advance appends a sample, recomputes burn rates and budget, and
// edge-triggers the breach counter and flight event.
func (s *SLO) advance(o *obs.Observer, now time.Time) {
	cur := s.read(now)
	s.mu.Lock()
	s.ring = append(s.ring, cur)
	if len(s.ring) > maxSamples {
		s.ring = s.ring[len(s.ring)-maxSamples:]
	}
	s.fast = s.burnLocked(cur, now.Add(-s.cfg.FastWindow))
	s.slow = s.burnLocked(cur, now.Add(-s.cfg.SlowWindow))
	s.budget = s.budgetLocked(cur, now)
	breach := s.fast >= s.cfg.FastBurn && s.slow >= s.cfg.SlowBurn
	exhausted := s.budget <= 0
	fire := (breach || exhausted) && !s.breached
	s.breached = breach || exhausted
	fastMil := int64(s.fast * 1000)
	idx := int64(s.idx)
	s.mu.Unlock()
	if fire {
		s.breaches.Inc()
		o.Flight().Record(flight.Event{Type: flight.SLOBreach, Site: -1, A1: idx, A2: fastMil})
	}
}

// burnLocked computes the burn rate between cur and the newest sample at or
// before since (falling back to the oldest retained sample): the window's
// error rate divided by the budget rate (1 - objective). 0 when the window
// saw no events.
func (s *SLO) burnLocked(cur sample, since time.Time) float64 {
	base := s.ring[0]
	for i := len(s.ring) - 1; i >= 0; i-- {
		if !s.ring[i].at.After(since) {
			base = s.ring[i]
			break
		}
	}
	total := cur.total - base.total
	if total <= 0 {
		return 0
	}
	bad := (cur.total - cur.good) - (base.total - base.good)
	if bad < 0 {
		bad = 0
	}
	return (bad / total) / (1 - s.cfg.Objective)
}

// budgetLocked computes the remaining error-budget fraction over the budget
// window: 1 - bad/(total * (1-objective)). 1 when the window saw no events.
func (s *SLO) budgetLocked(cur sample, now time.Time) float64 {
	since := now.Add(-s.cfg.BudgetWindow)
	base := s.ring[0]
	for i := len(s.ring) - 1; i >= 0; i-- {
		if !s.ring[i].at.After(since) {
			base = s.ring[i]
			break
		}
	}
	total := cur.total - base.total
	if total <= 0 {
		return 1
	}
	bad := (cur.total - cur.good) - (base.total - base.good)
	if bad < 0 {
		bad = 0
	}
	allowed := total * (1 - s.cfg.Objective)
	return 1 - bad/allowed
}

// SLOReport is the /slo JSON view of one objective.
type SLOReport struct {
	SLO             string  `json:"slo"`
	Objective       float64 `json:"objective"`
	FastWindow      string  `json:"fast_window"`
	SlowWindow      string  `json:"slow_window"`
	FastBurnRate    float64 `json:"fast_burn_rate"`
	SlowBurnRate    float64 `json:"slow_burn_rate"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Breached        bool    `json:"breached"`
	Breaches        int64   `json:"breaches_total"`
	Good            float64 `json:"good"`
	Total           float64 `json:"total"`
}

// SLOStatus recomputes every SLO from a fresh sample and returns the
// reports — the /slo payload. Nil-safe.
func (a *Auditor) SLOStatus() []SLOReport {
	if a == nil {
		return nil
	}
	now := time.Now()
	a.mu.Lock()
	slos := make([]*SLO, len(a.slos))
	copy(slos, a.slos)
	a.mu.Unlock()
	out := make([]SLOReport, 0, len(slos))
	for _, s := range slos {
		s.advance(a.o, now)
		s.mu.Lock()
		cur := s.ring[len(s.ring)-1]
		out = append(out, SLOReport{
			SLO:             s.cfg.Name,
			Objective:       s.cfg.Objective,
			FastWindow:      s.cfg.FastWindow.String(),
			SlowWindow:      s.cfg.SlowWindow.String(),
			FastBurnRate:    s.fast,
			SlowBurnRate:    s.slow,
			BudgetRemaining: s.budget,
			Breached:        s.breached,
			Breaches:        s.breaches.Value(),
			Good:            cur.good,
			Total:           cur.total,
		})
		s.mu.Unlock()
	}
	return out
}

// SLOHandler serves /slo: a fresh sample of every objective.
func (a *Auditor) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"slos": a.SLOStatus()})
	})
}
