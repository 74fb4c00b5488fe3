package fleet

import (
	"sync"

	"ccp/internal/obs/audit"
)

// DivergenceProbe returns the follower's audit probe: watermark sanity
// (applied never ahead of the leader's head, the replica epoch never ahead
// of applied), watermark monotonicity (applied only rewinds across a
// re-bootstrap), and a replication-lag ceiling (maxLag records; 0 disables
// the ceiling check). All reads are cheap atomics; transients from the
// replication loop's publish order are absorbed by audit.CheckStable.
func (f *Follower) DivergenceProbe(maxLag uint64) audit.Probe {
	var mu sync.Mutex
	var lastApplied, lastBoots uint64
	return audit.Probe{
		Name: "fleet.divergence",
		Check: func() audit.Result {
			mu.Lock()
			prevApplied, prevBoots := lastApplied, lastBoots
			mu.Unlock()
			r := audit.CheckStable(0, func() ([]int64, audit.Result) {
				applied := f.applied.Load()
				leader := f.leaderSeq.Load()
				epoch := f.site.Load().Epoch()
				boots := f.boots.Load()
				vals := []int64{int64(applied), int64(leader), int64(epoch), int64(boots)}
				switch {
				case boots == prevBoots && applied < prevApplied:
					return vals, audit.Violation(
						"applied watermark rewound %d -> %d without a re-bootstrap", prevApplied, applied)
				case applied > leader:
					return vals, audit.Violation(
						"applied seq %d ahead of leader head %d", applied, leader)
				case epoch > applied:
					return vals, audit.Violation(
						"replica epoch %d ahead of applied seq %d", epoch, applied)
				case maxLag > 0 && leader-applied > maxLag:
					return vals, audit.Violation(
						"replication lag %d exceeds ceiling %d (applied %d, leader %d)",
						leader-applied, maxLag, applied, leader)
				}
				return vals, audit.OK("applied %d, leader %d, epoch %d, lag %d, bootstraps %d",
					applied, leader, epoch, leader-applied, boots)
			})
			if r.OK {
				mu.Lock()
				if boots := f.boots.Load(); boots != lastBoots {
					lastBoots, lastApplied = boots, f.applied.Load()
				} else if applied := f.applied.Load(); applied > lastApplied {
					lastApplied = applied
				}
				mu.Unlock()
			}
			return r
		},
	}
}

// GateAccounting is a point-in-time read of the gate's arrival bookkeeping.
type GateAccounting struct {
	Offered  int64 `json:"offered"`
	Admitted int64 `json:"admitted"`
	ShedFull int64 `json:"shed_queue_full"`
	ShedWait int64 `json:"shed_queue_wait"`
	Pending  int64 `json:"pending"`
}

// Accounting reads the gate's arrival counters.
func (g *Gate) Accounting() GateAccounting {
	return GateAccounting{
		Offered:  g.met.offered.Value(),
		Admitted: g.met.admitted.Value(),
		ShedFull: g.met.shedFull.Value(),
		ShedWait: g.met.shedWait.Value(),
		Pending:  g.pending.Load(),
	}
}

// AccountingProbe returns the gate's audit probe: every arrival is
// accounted for — offered == admitted + shed + pending. The counters are
// published one atomic at a time on the admission path, so the probe judges
// only via audit.CheckStable: a mismatch that persists while nothing moves
// is lost accounting, a moving one is an arrival mid-flight.
func (g *Gate) AccountingProbe() audit.Probe {
	return audit.Probe{
		Name: "gate.accounting",
		Check: func() audit.Result {
			return audit.CheckStable(0, func() ([]int64, audit.Result) {
				a := g.Accounting()
				vals := []int64{a.Offered, a.Admitted, a.ShedFull, a.ShedWait, a.Pending}
				settled := a.Admitted + a.ShedFull + a.ShedWait + a.Pending
				if a.Offered != settled {
					return vals, audit.Violation(
						"offered %d != admitted %d + shed %d + pending %d",
						a.Offered, a.Admitted, a.ShedFull+a.ShedWait, a.Pending)
				}
				return vals, audit.OK("offered %d = admitted %d + shed %d + pending %d",
					a.Offered, a.Admitted, a.ShedFull+a.ShedWait, a.Pending)
			})
		},
	}
}
