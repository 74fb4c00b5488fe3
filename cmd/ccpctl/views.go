package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// siteRow is one worker site and the epoch it serves at.
type siteRow struct {
	Addr  string  `json:"addr"`
	Role  string  `json:"role"`
	Site  string  `json:"site"`
	Epoch float64 `json:"epoch"`
}

// coordRow is a coordinator's site connections and admission state.
type coordRow struct {
	Addr        string             `json:"addr"`
	Role        string             `json:"role"`
	Sites       map[string]string  `json:"sites"` // site_addr -> connected|down
	QueriesShed float64            `json:"queries_shed"`
	GateSheds   map[string]float64 `json:"gate_sheds"` // reason -> sheds
}

// classifyFleet reads one endpoint's serving roles from its /varz. Every
// coordinator exports ccp_queries_total; each label set with ccp_site_epoch
// is a site unless the process is a coordinator hosting its sites
// in-process. One endpoint can yield several sites (a test binary hosting
// multiple, say).
func classifyFleet(addr string, v varzDoc) ([]siteRow, *coordRow) {
	var coord *coordRow
	if _, ok := v.sum("ccp_queries_total"); ok {
		coord = &coordRow{Addr: addr, Role: "coordinator", Sites: map[string]string{},
			GateSheds: map[string]float64{}}
		coord.QueriesShed, _ = v.sum("ccp_queries_shed_total")
	}
	var sites []siteRow
	for labels, m := range v.groups() {
		if coord == nil {
			if epoch, ok := m["ccp_site_epoch"]; ok {
				sites = append(sites, siteRow{Addr: addr, Role: "site", Site: labelValue(labels, "site"), Epoch: epoch})
			}
			continue
		}
		if up, ok := m["ccp_client_connected"]; ok {
			state := "down"
			if up == 1 {
				state = "connected"
			}
			coord.Sites[labelValue(labels, "site_addr")] = state
		}
		if n, ok := m["ccp_admission_shed_total"]; ok {
			coord.GateSheds[labelValue(labels, "reason")] += n
		}
	}
	return sites, coord
}

// reachable reports each unreachable process on stderr and returns the
// rest.
func reachable(docs []doctorDoc) []doctorDoc {
	var ok []doctorDoc
	for _, d := range docs {
		if d.Err != "" {
			fmt.Fprintf(os.Stderr, "ccpctl: doctor: %s: %s\n", d.Addr, d.Err)
			continue
		}
		ok = append(ok, d)
	}
	return ok
}

// encodeLines writes one JSON object per row.
func encodeLines[T any](rows []T) error {
	enc := json.NewEncoder(os.Stdout)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// viewFleet prints the serving topology: each site's address and epoch,
// and each coordinator's per-site connections and shed counters.
func viewFleet(docs, _ []doctorDoc, asJSON bool) error {
	var sites []siteRow
	var coords []*coordRow
	for _, d := range reachable(docs) {
		s, c := classifyFleet(d.Addr, d.Varz)
		sites = append(sites, s...)
		if c != nil {
			coords = append(coords, c)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Site != b.Site {
			return siteLess(a.Site, b.Site)
		}
		return a.Addr < b.Addr
	})
	sort.Slice(coords, func(i, j int) bool { return coords[i].Addr < coords[j].Addr })

	if asJSON {
		if err := encodeLines(coords); err != nil {
			return err
		}
		return encodeLines(sites)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SITE\tADDR\tEPOCH")
	for _, r := range sites {
		fmt.Fprintf(w, "%s\t%s\t%.0f\n", r.Site, r.Addr, r.Epoch)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, c := range coords {
		fmt.Printf("\ncoordinator %s:\n", c.Addr)
		for _, sa := range sortedKeys(c.Sites) {
			fmt.Printf("  site %-27s %s\n", sa, c.Sites[sa])
		}
		fmt.Printf("  queries shed (admission)   %.0f\n", c.QueriesShed)
		for _, reason := range sortedKeys(c.GateSheds) {
			fmt.Printf("  gate shed %-17s %.0f\n", reason, c.GateSheds[reason])
		}
	}
	return nil
}

// storeRow is one durable site's store state: one label set's ccp_store_*
// and ccp_site_* series.
type storeRow struct {
	Addr     string  `json:"addr"`
	Site     string  `json:"site"`
	Epoch    float64 `json:"epoch"`
	Durable  float64 `json:"durable_seq"`
	CkptSeq  float64 `json:"checkpoint_seq"`
	WALBytes float64 `json:"wal_bytes"`
	CkptAge  float64 `json:"checkpoint_age_seconds"`
	Appends  float64 `json:"appends"`
	Fsyncs   float64 `json:"fsyncs"`
	Ckpts    float64 `json:"checkpoints"`
	Replayed float64 `json:"recovered_records"`
}

// viewStore prints each durable site's epoch vs durable vs checkpointed
// sequence numbers, WAL backlog, and lifetime append/fsync/checkpoint
// counters. Processes exporting no store series are listed as in-memory.
func viewStore(docs, _ []doctorDoc, asJSON bool) error {
	var rows []storeRow
	var memOnly []string
	for _, d := range reachable(docs) {
		found := false
		for labels, m := range d.Varz.groups() {
			durable, ok := m["ccp_store_durable_seq"]
			if !ok {
				continue // a site without a store still exports its epoch
			}
			found = true
			rows = append(rows, storeRow{
				Addr:     d.Addr,
				Site:     labelValue(labels, "site"),
				Epoch:    m["ccp_site_epoch"],
				Durable:  durable,
				CkptSeq:  m["ccp_store_checkpoint_seq"],
				WALBytes: m["ccp_store_wal_bytes"],
				CkptAge:  m["ccp_store_checkpoint_age_seconds"],
				Appends:  m["ccp_store_appends_total"],
				Fsyncs:   m["ccp_store_fsyncs_total"],
				Ckpts:    m["ccp_store_checkpoints_total"],
				Replayed: m["ccp_store_recovered_records_total"],
			})
		}
		if !found {
			memOnly = append(memOnly, d.Addr)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Site != rows[j].Site {
			return siteLess(rows[i].Site, rows[j].Site)
		}
		return rows[i].Addr < rows[j].Addr
	})

	if asJSON {
		return encodeLines(rows)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SITE\tADDR\tEPOCH\tDURABLE\tCKPT\tWAL TAIL\tCKPT AGE\tAPPENDS\tFSYNCS\tCKPTS\tREPLAYED")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.Site, r.Addr, r.Epoch, r.Durable, r.CkptSeq,
			fmtBytes(r.WALBytes), fmtAge(r.CkptAge),
			r.Appends, r.Fsyncs, r.Ckpts, r.Replayed)
	}
	for _, addr := range memOnly {
		fmt.Fprintf(w, "-\t%s\t(in-memory, no durable store)\n", addr)
	}
	return w.Flush()
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

func fmtAge(sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return time.Duration(sec * float64(time.Second)).Truncate(time.Second).String()
}

// viewTop prints each endpoint's query throughput and latency quantiles,
// cache hit rates, site connections, and site reduction rates.
// Rates are per-second deltas against the previous -watch round ("-" on
// the first).
func viewTop(docs, prev []doctorDoc, asJSON bool) error {
	if asJSON {
		return fmt.Errorf("doctor: -view top has no -json form")
	}
	last := map[string]doctorDoc{}
	for _, d := range prev {
		if d.Err == "" {
			last[d.Addr] = d
		}
	}
	fmt.Printf("ccp top — %d endpoint(s), %s\n", len(docs), time.Now().Format("15:04:05"))
	for _, cur := range docs {
		fmt.Printf("\n== %s ==\n", cur.Addr)
		if cur.Err != "" {
			fmt.Printf("  unreachable: %s\n", cur.Err)
			continue
		}
		p, seen := last[cur.Addr]
		counter := func(label, name, unit string) {
			n, ok := cur.Varz.sum(name)
			if !ok {
				return
			}
			rate := "-"
			if dt := cur.at.Sub(p.at).Seconds(); seen && dt > 0 {
				before, _ := p.Varz.sum(name)
				rate = fmt.Sprintf("%.1f/s", (n-before)/dt)
			}
			fmt.Printf("  %-9s %8.0f %-7s %s\n", label, n, unit, rate)
		}

		counter("queries", "ccp_queries_total", "total")
		if h := cur.Varz.hist("ccp_query_seconds"); h != nil && h.Count > 0 {
			q := func(p float64) time.Duration {
				return time.Duration(h.Quantile(p) * float64(time.Second)).Round(time.Microsecond)
			}
			fmt.Printf("  latency   p50=%v p95=%v p99=%v (n=%d)\n", q(0.50), q(0.95), q(0.99), h.Count)
		}
		hits, _ := cur.Varz.sum("ccp_coord_cache_hits_total")
		misses, _ := cur.Varz.sum("ccp_coord_cache_misses_total")
		if hits+misses > 0 {
			fmt.Printf("  coord-cache  %.1f%% (%.0f/%.0f) hit\n", 100*hits/(hits+misses), hits, hits+misses)
		}
		counter("site-cache", "ccp_site_cache_hits_total", "hits")
		counter("reduce", "ccp_site_reduce_seconds", "reductions")
		counter("served", "ccp_server_requests_total", "reqs")
		if _, coord := classifyFleet(cur.Addr, cur.Varz); coord != nil && len(coord.Sites) > 0 {
			n := map[string]int{}
			for _, state := range coord.Sites {
				n[state]++
			}
			fmt.Printf("  sites     %d connected, %d down\n", n["connected"], n["down"])
		}
	}
	return nil
}
