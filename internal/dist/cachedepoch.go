package dist

import (
	"strconv"

	"ccp/internal/obs"
)

// observeCache exports the coordinator's per-site cached-partial epochs as
// ccp_coord_cached_epoch{site} gauges (-1 = no cached copy; every epoch is
// below 2^53, so a float64 holds it exactly). `ccpctl doctor` cross-checks
// them against the serving sites' ccp_site_epoch: a cached epoch ahead of
// its site's is a partial answer from a future that never happened —
// corruption no single process can see alone.
func (c *Coordinator) observeCache(o *obs.Observer) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	for siteID, slot := range c.slots {
		slot := slot
		reg.GaugeFunc("ccp_coord_cached_epoch",
			"Epoch of the coordinator's cached partial answer for the site (-1 = none cached).",
			func() float64 {
				if e := c.pcache[slot].Load(); e != nil {
					return float64(e.epoch)
				}
				return -1
			}, obs.Label{Key: "site", Value: strconv.Itoa(siteID)})
	}
}
