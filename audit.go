package ccp

import (
	"ccp/internal/obs"
	"ccp/internal/obs/audit"
	"ccp/internal/store"
)

// The continuous audit & SLO surface of a deployment. An Auditor is the
// per-process verification engine: subsystems register cheap invariant
// probes (store scrub, fleet divergence, coordinator conservation, gate
// accounting) and service-level objectives, the auditor re-checks them on a
// background interval, exports ccp_audit_* / ccp_slo_* series, records
// violations and budget breaches into the flight recorder, and serves the
// /audit ops endpoint (probe verdicts and SLO budgets in one report) that
// `ccpctl doctor` joins into a cluster-wide report.
type (
	// Auditor is the per-process audit engine; build with NewAuditor, wire
	// probes with Register / RegisterSLO, start the loop with Start, and
	// mount Endpoints() on the ops server.
	Auditor = audit.Auditor
	// AuditConfig configures NewAuditor.
	AuditConfig = audit.Config
	// AuditProbe is one registered invariant check.
	AuditProbe = audit.Probe
	// AuditResult is one probe evaluation.
	AuditResult = audit.Result
	// AuditReport is the /audit payload: every probe re-run on demand and
	// every SLO read.
	AuditReport = audit.Report
	// SLOConfig declares one objective (availability or latency target)
	// over a cumulative (good, total) series pair.
	SLOConfig = audit.SLOConfig
	// SLOReport is the /audit view of one objective.
	SLOReport = audit.SLOReport
	// OpsEndpoint mounts an extra handler on StartOpsServer's mux (the
	// auditor's /audit).
	OpsEndpoint = obs.Endpoint
	// StoreScrubResult reports one scrub pass over a durable site's
	// on-disk state.
	StoreScrubResult = store.ScrubResult
)

// NewAuditor builds a process audit engine.
func NewAuditor(cfg AuditConfig) *Auditor { return audit.New(cfg) }

// RegisterBuildInfo exports the ccp_build_info gauge (build version, Go
// version, process role) on r. Every binary calls it so a scrape — or
// `ccpctl doctor` — can tell what is running where.
func RegisterBuildInfo(r *MetricsRegistry, role string) { obs.RegisterBuildInfo(r, role) }

// AuditProbes returns the cluster's coordinator-side invariant probes:
// snapshot-cache conservation, and — when admission control is enabled —
// gate arrival accounting. Register them on the process auditor.
func (c *Cluster) AuditProbes() []AuditProbe {
	probes := []AuditProbe{c.coord.ConservationProbe()}
	if c.gate != nil {
		probes = append(probes, c.gate.AccountingProbe())
	}
	return probes
}

// StoreScrubProbe returns the audit probe re-verifying this site's WAL and
// checkpoint CRCs on the live data-dir, maxSegments WAL segments per pass
// (<= 0 scrubs all; the pass rotates through segments across runs). Passes
// trivially for a memory-only site.
func (s *SiteServer) StoreScrubProbe(maxSegments int) AuditProbe {
	return s.site.StoreScrubProbe(maxSegments)
}

// DivergenceProbe returns the follower's audit probe: watermark sanity and
// monotonicity plus a replication-lag ceiling of maxLag records (0 disables
// the ceiling). Register it on the follower process's auditor.
func (s *FollowerSite) DivergenceProbe(maxLag uint64) AuditProbe {
	return s.f.DivergenceProbe(maxLag)
}
