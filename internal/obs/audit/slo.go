package audit

import (
	"math"
	"sort"
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
	// every sample tick and on every /audit request; must be cheap.
	Source func() (good, total float64)
}

// The burn-rate policy every SLO shares. A breach needs both windows
// burning past their thresholds (multi-window alerting) or the budget
// exhausted; 14.4x / 6x is the classic page-tier pair (14.4x burns a 30-day
// budget in 2 days, 6x in 5 days).
const (
	fastWindow   = 5 * time.Minute
	slowWindow   = time.Hour
	fastBurn     = 14.4
	slowBurn     = 6
	budgetWindow = 24 * time.Hour
)

// maxSamples bounds each SLO's ring. Ticks closer than sampleSpacing to the
// newest retained sample are not retained, so the ring spans the whole
// budget window whatever the tick interval.
const (
	maxSamples    = 4096
	sampleSpacing = budgetWindow / maxSamples
)

// sample is one ring entry: the cumulative counts at a tick.
type sample struct {
	at          time.Time
	good, total float64
}

// SLO is one objective's live state: the sample ring, the burn rates of the
// last tick, and breach edge state.
type SLO struct {
	cfg      SLOConfig
	idx      int
	breaches *obs.Counter

	mu       sync.Mutex
	ring     []sample // time-ordered, >= sampleSpacing apart, one sample at or before the budget window
	fast     float64  // last tick's burn rates
	slow     float64
	budget   float64 // last tick's budget remaining, 1 = untouched
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

func (a *Auditor) sloList() []*SLO {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*SLO(nil), a.slos...)
}

// advance is one tick: it retains the sample if it is sampleSpacing past the
// newest one, drops samples the budget window no longer needs, recomputes
// the exported burn rates and budget, and edge-triggers the breach counter
// and flight event.
func (s *SLO) advance(o *obs.Observer, now time.Time) {
	cur := s.read(now)
	s.mu.Lock()
	if now.Sub(s.ring[len(s.ring)-1].at) >= sampleSpacing {
		s.ring = append(s.ring, cur)
	}
	for len(s.ring) > 1 && !s.ring[1].at.After(now.Add(-budgetWindow)) {
		s.ring = s.ring[1:]
	}
	s.fast, s.slow, s.budget = s.evalLocked(cur)
	breach := breached(s.fast, s.slow, s.budget)
	fire := breach && !s.breached
	s.breached = breach
	fastMil := int64(s.fast * 1000)
	idx := int64(s.idx)
	s.mu.Unlock()
	if fire {
		s.breaches.Inc()
		o.Flight().Record(flight.Event{Type: flight.SLOBreach, Site: -1, A1: idx, A2: fastMil})
	}
}

// evalLocked evaluates cur against the ring: the fast and slow burn rates
// and the budget remaining (1 - the burn over the budget window).
func (s *SLO) evalLocked(cur sample) (fast, slow, budget float64) {
	return s.burnLocked(cur, fastWindow), s.burnLocked(cur, slowWindow), 1 - s.burnLocked(cur, budgetWindow)
}

// burnLocked computes the burn rate between cur and the newest sample at or
// before the window's start (falling back to the oldest retained sample):
// the window's error rate divided by the budget rate (1 - objective). 0 when
// the window saw no events.
func (s *SLO) burnLocked(cur sample, window time.Duration) float64 {
	since := cur.at.Add(-window)
	i := sort.Search(len(s.ring), func(i int) bool { return s.ring[i].at.After(since) })
	base := s.ring[max(i-1, 0)]
	total := cur.total - base.total
	if total <= 0 {
		return 0
	}
	bad := max((cur.total-cur.good)-(base.total-base.good), 0)
	return (bad / total) / (1 - s.cfg.Objective)
}

// breached is the alert policy: both windows over threshold, or the budget
// exhausted.
func breached(fast, slow, budget float64) bool {
	return fast >= fastBurn && slow >= slowBurn || budget <= 0
}

// SLOReport is the /audit JSON view of one objective.
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

// SLOStatus evaluates every SLO on a fresh read of its source against the
// ring. A read is not a tick: the ring, the exported gauges and the breach
// edge state are left as the last tick set them. Nil-safe.
func (a *Auditor) SLOStatus() []SLOReport {
	if a == nil {
		return nil
	}
	now := time.Now()
	slos := a.sloList()
	out := make([]SLOReport, 0, len(slos))
	for _, s := range slos {
		cur := s.read(now)
		s.mu.Lock()
		fast, slow, budget := s.evalLocked(cur)
		s.mu.Unlock()
		out = append(out, SLOReport{
			SLO:             s.cfg.Name,
			Objective:       s.cfg.Objective,
			FastWindow:      fastWindow.String(),
			SlowWindow:      slowWindow.String(),
			FastBurnRate:    fast,
			SlowBurnRate:    slow,
			BudgetRemaining: budget,
			Breached:        breached(fast, slow, budget),
			Breaches:        s.breaches.Value(),
			Good:            cur.good,
			Total:           cur.total,
		})
	}
	return out
}
