package flight

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// TimelineEntry is one event of a merged cross-process timeline, tagged with
// the process that recorded it. An entry without one (an event of a query's
// stitched trace) prints under the process its site names: "coord",
// "site-3"; a wire.rpc envelope names the site it called but ran at the
// coordinator.
type TimelineEntry struct {
	Process string
	Event
}

// MergeTimeline assembles per-process dumps into one time-ordered timeline.
// Timestamps are each process's own clock, so cross-process ordering is
// exact only up to clock skew — on one host (the deployment the smoke tests
// exercise) that is microseconds, well under the RPC latencies the timeline
// is read for.
func MergeTimeline(dumps ...Dump) []TimelineEntry {
	n := 0
	for _, d := range dumps {
		n += len(d.Events)
	}
	out := make([]TimelineEntry, 0, n)
	for _, d := range dumps {
		for _, e := range d.Events {
			out = append(out, TimelineEntry{Process: d.Process, Event: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// FilterTrace keeps only the entries of one query's flight id.
func FilterTrace(entries []TimelineEntry, trace uint64) []TimelineEntry {
	out := entries[:0:0]
	for _, e := range entries {
		if e.Trace == trace {
			out = append(out, e)
		}
	}
	return out
}

// WriteTimeline renders a merged timeline as an aligned table, one event per
// line, timestamps as offsets from the first event — the ccpctl flight and
// SIGQUIT dump format.
func WriteTimeline(w io.Writer, entries []TimelineEntry) error {
	if len(entries) == 0 {
		_, err := fmt.Fprintln(w, "flight: no events recorded")
		return err
	}
	base := entries[0].TS
	if _, err := fmt.Fprintf(w, "flight: %d events, t0=%s\n",
		len(entries), time.Unix(0, base).UTC().Format(time.RFC3339Nano)); err != nil {
		return err
	}
	for _, e := range entries {
		trace := ""
		if e.Trace != 0 {
			trace = fmt.Sprintf("%016x", e.Trace)
		}
		proc, detail := e.Process, e.Detail()
		site := strconv.Itoa(int(e.Site))
		if proc == "" {
			if proc = "coord"; e.Site >= 0 && e.Type != WireRPC {
				proc = "site-" + site
			}
		}
		if e.Site >= 0 && proc != "site-"+site {
			// An event about a site recorded elsewhere (the coordinator's
			// wire.rpc, a client's redial): say which site.
			detail += " site=" + site
		}
		if _, err := fmt.Fprintf(w, "  +%-14v %-10s %-20s %-16s %s\n",
			time.Duration(e.TS-base), proc, e.Type, trace, detail); err != nil {
			return err
		}
	}
	return nil
}
