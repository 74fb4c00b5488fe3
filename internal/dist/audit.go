package dist

import (
	"strconv"

	"ccp/internal/obs"
	"ccp/internal/obs/audit"
)

// observeCache exports the coordinator's per-site cached-partial epochs as
// ccp_coord_cached_epoch{site} gauges (0 = no cached copy). `ccpctl doctor`
// cross-checks them against the serving sites' ccp_site_epoch: a cached
// epoch ahead of its site's is a partial answer from a future that never
// happened — corruption no single process can see alone.
func (c *Coordinator) observeCache(o *obs.Observer) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	for siteID, slot := range c.slots {
		slot := slot
		reg.GaugeFunc("ccp_coord_cached_epoch",
			"Epoch of the coordinator's cached partial answer for the site (0 = none cached).",
			func() float64 {
				if e := c.pcache[slot].Load(); e != nil {
					return float64(e.epoch)
				}
				return 0
			}, obs.Label{Key: "site", Value: strconv.Itoa(siteID)})
	}
}

// StoreScrubProbe returns a durable site's audit probe: one bounded Scrub
// pass (sampled CRC re-verification of WAL segments and checkpoints on the
// live data-dir) per evaluation. Returns a no-op passing probe for a
// memory-only site.
func (s *Site) StoreScrubProbe(maxSegments int) audit.Probe {
	return audit.Probe{
		Name: "store.scrub",
		Check: func() audit.Result {
			if s.store == nil {
				return audit.OK("memory-only site, nothing to scrub")
			}
			res := s.store.Scrub(maxSegments)
			if !res.OK() {
				return audit.Violation("%s", res.Summary())
			}
			return audit.OK("%s", res.Summary())
		},
	}
}
