package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// fleetRow is one serving process in the replication topology — a leader
// site, a follower replica, or a coordinator — assembled from the
// ccp_fleet_*, ccp_site_*, ccp_client_* and admission series of its /varz.
type fleetRow struct {
	addr, site, role string
	// leader/follower data-plane state.
	epoch, applied, leaderSeq, lag float64
	pulls, bootstraps, truncations float64
	// coordinator control-plane state.
	circuits   map[string]string // site_addr -> closed|open|half-open
	shedCoord  float64           // ccp_queries_shed_total
	shedGate   map[string]float64
	replicaRds map[string]float64 // role -> reads
	fallbacks  float64
	staleReads float64
}

// cmdFleet prints the replication topology of a running deployment: which
// processes are leaders vs follower replicas, each follower's replication
// lag (leader seq − applied seq), the coordinator's per-replica circuit
// states, and the admission-control shed counters — everything needed to
// tell at a glance whether the fleet is converged and healthy. Point -ops
// at every process's ops endpoint (leaders, followers, coordinators mixed
// freely); each is classified by the series it exports.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	opsList := fs.String("ops", "", "comma-separated ops addresses (host:port or URL) to poll")
	timeout := fs.Duration("timeout", 5*time.Second, "per-endpoint scrape timeout")
	asJSON := fs.Bool("json", false, "emit one JSON object per process instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitList(*opsList)
	if len(addrs) == 0 {
		return fmt.Errorf("fleet: -ops is required")
	}
	client := &http.Client{Timeout: *timeout}

	var rows []fleetRow
	for _, addr := range addrs {
		var doc varzDoc
		if err := opsGet(client, addr, "/varz", &doc); err != nil {
			fmt.Fprintf(os.Stderr, "ccpctl: fleet: %s: %v\n", addr, err)
			continue
		}
		rows = append(rows, classifyFleet(addr, doc)...)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].site != rows[j].site {
			return rows[i].site < rows[j].site
		}
		if rows[i].role != rows[j].role {
			return rows[i].role > rows[j].role // "leader" after "follower" reversed: leader first
		}
		return rows[i].addr < rows[j].addr
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range rows {
			obj := map[string]any{"addr": r.addr, "role": r.role}
			switch r.role {
			case "coordinator":
				obj["circuits"] = r.circuits
				obj["queries_shed"] = r.shedCoord
				obj["gate_sheds"] = r.shedGate
				obj["replica_reads"] = r.replicaRds
				obj["fallbacks"] = r.fallbacks
				obj["stale_reads"] = r.staleReads
			case "follower":
				obj["site"] = r.site
				obj["epoch"] = r.epoch
				obj["applied_seq"] = r.applied
				obj["leader_seq"] = r.leaderSeq
				obj["lag_records"] = r.lag
				obj["pulls"] = r.pulls
				obj["bootstraps"] = r.bootstraps
				obj["truncations"] = r.truncations
			default:
				obj["site"] = r.site
				obj["epoch"] = r.epoch
			}
			enc.Encode(obj)
		}
		return nil
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SITE\tROLE\tADDR\tEPOCH\tAPPLIED\tLEADER SEQ\tLAG\tPULLS\tBOOTSTRAPS\tTRUNCS")
	for _, r := range rows {
		switch r.role {
		case "leader":
			fmt.Fprintf(w, "%s\tleader\t%s\t%.0f\t-\t-\t-\t-\t-\t-\n", r.site, r.addr, r.epoch)
		case "follower":
			fmt.Fprintf(w, "%s\tfollower\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				r.site, r.addr, r.epoch, r.applied, r.leaderSeq, r.lag,
				r.pulls, r.bootstraps, r.truncations)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, r := range rows {
		if r.role != "coordinator" {
			continue
		}
		fmt.Printf("\ncoordinator %s:\n", r.addr)
		var sites []string
		for sa := range r.circuits {
			sites = append(sites, sa)
		}
		sort.Strings(sites)
		for _, sa := range sites {
			fmt.Printf("  circuit %-24s %s\n", sa, r.circuits[sa])
		}
		fmt.Printf("  queries shed (admission)   %.0f\n", r.shedCoord)
		var reasons []string
		for reason := range r.shedGate {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			fmt.Printf("  gate shed %-17s %.0f\n", reason, r.shedGate[reason])
		}
		fmt.Printf("  replica reads              leader=%.0f follower=%.0f fallbacks=%.0f stale=%.0f\n",
			r.replicaRds["leader"], r.replicaRds["follower"], r.fallbacks, r.staleReads)
	}
	return nil
}

// classifyFleet turns one endpoint's /varz into fleet rows. A process that
// exports ccp_fleet_applied_seq is a follower, one with ccp_client circuit
// gauges or coordinator query counters is a coordinator, and a plain site
// epoch marks a leader. One endpoint can yield several rows (a test binary
// hosting multiple sites, say); a coordinator yields exactly one.
func classifyFleet(addr string, doc varzDoc) []fleetRow {
	bySite := map[string]map[string]float64{}
	coord := fleetRow{
		addr: addr, role: "coordinator",
		circuits:   map[string]string{},
		shedGate:   map[string]float64{},
		replicaRds: map[string]float64{},
	}
	isCoord := false
	for _, v := range doc.Metrics {
		if v.Hist != nil {
			continue
		}
		switch v.Name {
		case "ccp_client_circuit_state":
			isCoord = true
			state := "closed"
			switch v.Value {
			case 1:
				state = "open"
			case 2:
				state = "half-open"
			}
			coord.circuits[labelValue(v.Labels, "site_addr")] = state
		case "ccp_queries_shed_total":
			isCoord = true
			coord.shedCoord += v.Value
		case "ccp_admission_shed_total":
			isCoord = true
			coord.shedGate[labelValue(v.Labels, "reason")] += v.Value
		case "ccp_replica_reads_total":
			isCoord = true
			coord.replicaRds[labelValue(v.Labels, "role")] += v.Value
		case "ccp_replica_fallbacks_total":
			isCoord = true
			coord.fallbacks += v.Value
		case "ccp_replica_stale_reads_total":
			isCoord = true
			coord.staleReads += v.Value
		case "ccp_queries_total":
			isCoord = true
		case "ccp_site_epoch", "ccp_fleet_epoch", "ccp_fleet_applied_seq",
			"ccp_fleet_leader_seq", "ccp_fleet_lag_records", "ccp_fleet_pulls_total",
			"ccp_fleet_bootstraps_total", "ccp_fleet_truncations_total":
			m, ok := bySite[v.Labels]
			if !ok {
				m = map[string]float64{}
				bySite[v.Labels] = m
			}
			m[v.Name] += v.Value
		}
	}

	var rows []fleetRow
	for labels, m := range bySite {
		r := fleetRow{addr: addr, site: labelValue(labels, "site")}
		if _, isFollower := m["ccp_fleet_applied_seq"]; isFollower {
			r.role = "follower"
			r.epoch = m["ccp_fleet_epoch"]
			r.applied = m["ccp_fleet_applied_seq"]
			r.leaderSeq = m["ccp_fleet_leader_seq"]
			r.lag = m["ccp_fleet_lag_records"]
			r.pulls = m["ccp_fleet_pulls_total"]
			r.bootstraps = m["ccp_fleet_bootstraps_total"]
			r.truncations = m["ccp_fleet_truncations_total"]
		} else if !isCoord {
			r.role = "leader"
			r.epoch = m["ccp_site_epoch"]
		} else {
			continue // a coordinator caching site epochs is not a serving site
		}
		rows = append(rows, r)
	}
	if isCoord {
		rows = append(rows, coord)
	}
	return rows
}
