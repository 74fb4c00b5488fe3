package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// storeRow is one site's durable-store state, assembled from the
// ccp_store_* and ccp_site_* series of a /varz snapshot.
type storeRow struct {
	addr, site                    string
	epoch, durable, ckptSeq       float64
	walBytes, ckptAge, pins       float64
	appends, fsyncs, ckpts, reply float64
}

// cmdStore prints the durable-store state of one or more running sites:
// epoch vs durable vs checkpointed sequence numbers, WAL backlog, and
// lifetime append/fsync/checkpoint counters, scraped from the ops /varz
// endpoints. Sites running without -data-dir report no store series and are
// listed as in-memory.
func cmdStore(args []string) error {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	opsList := fs.String("ops", "", "comma-separated ops addresses (host:port or URL) to poll")
	timeout := fs.Duration("timeout", 5*time.Second, "per-endpoint scrape timeout")
	asJSON := fs.Bool("json", false, "emit one JSON object per site instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitList(*opsList)
	if len(addrs) == 0 {
		return fmt.Errorf("store: -ops is required")
	}
	client := &http.Client{Timeout: *timeout}

	var rows []storeRow
	var memOnly []string
	for _, addr := range addrs {
		var doc varzDoc
		if err := opsGet(client, addr, "/varz", &doc); err != nil {
			fmt.Fprintf(os.Stderr, "ccpctl: store: %s: %v\n", addr, err)
			continue
		}
		// Group the flat series by their label set; each label set with
		// store series is one durable site behind this endpoint.
		bySite := map[string]map[string]float64{}
		for _, v := range doc.Metrics {
			if v.Hist != nil {
				continue
			}
			if !strings.HasPrefix(v.Name, "ccp_store_") &&
				v.Name != "ccp_site_epoch" && v.Name != "ccp_site_snapshot_pins" {
				continue
			}
			m, ok := bySite[v.Labels]
			if !ok {
				m = map[string]float64{}
				bySite[v.Labels] = m
			}
			m[v.Name] = v.Value
		}
		found := false
		for labels, m := range bySite {
			if _, ok := m["ccp_store_durable_seq"]; !ok {
				continue // a site without a store still exports its epoch
			}
			found = true
			rows = append(rows, storeRow{
				addr:     addr,
				site:     labelValue(labels, "site"),
				epoch:    m["ccp_site_epoch"],
				durable:  m["ccp_store_durable_seq"],
				ckptSeq:  m["ccp_store_checkpoint_seq"],
				walBytes: m["ccp_store_wal_bytes"],
				ckptAge:  m["ccp_store_checkpoint_age_seconds"],
				pins:     m["ccp_site_snapshot_pins"],
				appends:  m["ccp_store_appends_total"],
				fsyncs:   m["ccp_store_fsyncs_total"],
				ckpts:    m["ccp_store_checkpoints_total"],
				reply:    m["ccp_store_recovered_records_total"],
			})
		}
		if !found {
			memOnly = append(memOnly, addr)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].site != rows[j].site {
			return rows[i].site < rows[j].site
		}
		return rows[i].addr < rows[j].addr
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range rows {
			enc.Encode(map[string]any{
				"addr": r.addr, "site": r.site,
				"epoch": r.epoch, "durable_seq": r.durable, "checkpoint_seq": r.ckptSeq,
				"wal_bytes": r.walBytes, "checkpoint_age_seconds": r.ckptAge,
				"snapshot_pins": r.pins, "appends": r.appends, "fsyncs": r.fsyncs,
				"checkpoints": r.ckpts, "recovered_records": r.reply,
			})
		}
		return nil
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SITE\tADDR\tEPOCH\tDURABLE\tCKPT\tWAL TAIL\tCKPT AGE\tAPPENDS\tFSYNCS\tCKPTS\tREPLAYED\tPINS")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.site, r.addr, r.epoch, r.durable, r.ckptSeq,
			fmtBytes(r.walBytes), fmtAge(r.ckptAge),
			r.appends, r.fsyncs, r.ckpts, r.reply, r.pins)
	}
	for _, addr := range memOnly {
		fmt.Fprintf(w, "-\t%s\t(in-memory, no durable store)\n", addr)
	}
	return w.Flush()
}

// labelValue extracts one label's value from the canonical exposition form
// `{k="v",k2="v2"}`.
func labelValue(labels, key string) string {
	rest := strings.Trim(labels, "{}")
	for _, part := range strings.Split(rest, ",") {
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return "?"
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
