package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"ccp/internal/obs/audit"
)

// doctorDoc is one process's joined ops state: its /varz, /audit and /slo
// payloads under one address. `ccpctl doctor` scrapes one per -ops endpoint
// (or reads them from -in files) and cross-checks the set.
type doctorDoc struct {
	Addr  string            `json:"addr"`
	Err   string            `json:"err,omitempty"` // scrape failure; all payloads empty
	Varz  varzDoc           `json:"varz"`
	Audit *audit.Report     `json:"audit,omitempty"`
	SLO   *doctorSLOPayload `json:"slo,omitempty"`
}

// doctorSLOPayload is the /slo response shape.
type doctorSLOPayload struct {
	SLOs []audit.SLOReport `json:"slos"`
}

// doctorFinding is one row of the doctor's verdict table.
type doctorFinding struct {
	Scope  string `json:"scope"` // process address, or "cluster" for cross-process checks
	Check  string `json:"check"`
	Status string `json:"status"` // green | yellow | red
	Detail string `json:"detail"`
}

const (
	statusGreen  = "green"
	statusYellow = "yellow"
	statusRed    = "red"
)

// cmdDoctor joins every process's /varz, /audit and /slo into one
// cluster-wide health report: per-process invariant probes and SLO budgets,
// plus the cross-process checks no single process can run alone —
// leader/follower epoch agreement, coordinator cached-partial epochs never
// ahead of their site, admission arithmetic, build skew. It prints a
// green/yellow/red table and exits nonzero if anything is red.
func cmdDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	opsList := fs.String("ops", "", "comma-separated ops addresses (host:port or URL) to examine")
	inList := fs.String("in", "", "comma-separated files holding saved doctor documents (JSON object or array) to examine instead of or alongside -ops")
	timeout := fs.Duration("timeout", 5*time.Second, "per-endpoint scrape timeout")
	asJSON := fs.Bool("json", false, "emit the findings as JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitList(*opsList)
	files := splitList(*inList)
	if len(addrs) == 0 && len(files) == 0 {
		return fmt.Errorf("doctor: -ops or -in is required")
	}

	var docs []doctorDoc
	client := &http.Client{Timeout: *timeout}
	for _, addr := range addrs {
		docs = append(docs, scrapeDoctorDoc(client, addr))
	}
	for _, path := range files {
		fd, err := readDoctorDocs(path)
		if err != nil {
			return fmt.Errorf("doctor: %s: %w", path, err)
		}
		docs = append(docs, fd...)
	}

	findings := runDoctor(docs)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return err
		}
	} else {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "SCOPE\tCHECK\tSTATUS\tDETAIL")
		for _, f := range findings {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", f.Scope, f.Check, strings.ToUpper(f.Status), f.Detail)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	var yellow, red int
	for _, f := range findings {
		switch f.Status {
		case statusYellow:
			yellow++
		case statusRed:
			red++
		}
	}
	fmt.Printf("doctor: %d processes, %d checks: %d red, %d yellow\n",
		len(docs), len(findings), red, yellow)
	if red > 0 {
		return fmt.Errorf("doctor: %d check(s) red", red)
	}
	return nil
}

// scrapeDoctorDoc fetches one process's /varz, /audit and /slo. /varz is
// mandatory (without it the process is unexaminable — a red scrape
// finding); /audit and /slo are optional so older processes still join the
// report. /audit answers 500 while violated by design, so that status is
// decoded too.
func scrapeDoctorDoc(client *http.Client, addr string) doctorDoc {
	doc := doctorDoc{Addr: addr}
	if err := opsGet(client, addr, "/varz", &doc.Varz); err != nil {
		doc.Err = err.Error()
		return doc
	}
	var rep audit.Report
	if err := opsGet(client, addr, "/audit", &rep, http.StatusInternalServerError); err == nil {
		doc.Audit = &rep
	}
	var slo doctorSLOPayload
	if err := opsGet(client, addr, "/slo", &slo); err == nil {
		doc.SLO = &slo
	}
	return doc
}

// readDoctorDocs loads saved doctor documents — a single JSON object or an
// array — from a file written by `ccpctl doctor -json`-adjacent tooling or
// a test harness.
func readDoctorDocs(path string) ([]doctorDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var docs []doctorDoc
		if err := json.Unmarshal(data, &docs); err != nil {
			return nil, err
		}
		return docs, nil
	}
	var doc doctorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return []doctorDoc{doc}, nil
}

// runDoctor evaluates every per-process and cross-process check over the
// joined documents. Pure: no I/O, deterministic order — the unit doctor_test
// drives it directly.
func runDoctor(docs []doctorDoc) []doctorFinding {
	var findings []doctorFinding
	add := func(scope, check, status, detail string) {
		findings = append(findings, doctorFinding{Scope: scope, Check: check, Status: status, Detail: detail})
	}

	// Per-process: reachability, the process's own probe verdicts, SLO
	// budgets.
	for _, doc := range docs {
		if doc.Err != "" {
			add(doc.Addr, "scrape", statusRed, doc.Err)
			continue
		}
		add(doc.Addr, "scrape", statusGreen, fmt.Sprintf("%d series", len(doc.Varz.Metrics)))
		if doc.Audit != nil {
			for _, p := range doc.Audit.Probes {
				switch {
				case !p.OK:
					add(doc.Addr, "probe:"+p.Probe, statusRed, p.Detail)
				case p.Violations > 0:
					add(doc.Addr, "probe:"+p.Probe, statusYellow,
						fmt.Sprintf("passing now, %d past violation(s): %s", p.Violations, p.Detail))
				default:
					add(doc.Addr, "probe:"+p.Probe, statusGreen, p.Detail)
				}
			}
		}
		if doc.SLO != nil {
			for _, s := range doc.SLO.SLOs {
				detail := fmt.Sprintf("burn fast %.2fx slow %.2fx, budget %.1f%% left (%.0f/%.0f good)",
					s.FastBurnRate, s.SlowBurnRate, 100*s.BudgetRemaining, s.Good, s.Total)
				switch {
				case s.BudgetRemaining <= 0:
					add(doc.Addr, "slo:"+s.SLO, statusRed, "error budget exhausted: "+detail)
				case s.Breached:
					add(doc.Addr, "slo:"+s.SLO, statusYellow, "burn-rate alert: "+detail)
				default:
					add(doc.Addr, "slo:"+s.SLO, statusGreen, detail)
				}
			}
		}
	}

	// Cross-process state, assembled from every reachable /varz.
	type siteState struct {
		leaderAddr  string
		leaderEpoch float64
		hasLeader   bool
	}
	sites := map[string]*siteState{}
	type followerState struct {
		addr, site string
		epoch, lag float64
	}
	var followers []followerState
	type cachedEpoch struct {
		coordAddr, site string
		epoch           float64
	}
	var cached []cachedEpoch
	versions := map[string][]string{} // build version -> addrs
	for _, doc := range docs {
		if doc.Err != "" {
			continue
		}
		for _, row := range classifyFleet(doc.Addr, doc.Varz) {
			switch row.role {
			case "leader":
				st := sites[row.site]
				if st == nil {
					st = &siteState{}
					sites[row.site] = st
				}
				st.leaderAddr, st.leaderEpoch, st.hasLeader = doc.Addr, row.epoch, true
			case "follower":
				followers = append(followers, followerState{addr: doc.Addr, site: row.site, epoch: row.epoch, lag: row.lag})
			}
		}
		var offered, settled float64
		var hasGate bool
		for _, v := range doc.Varz.Metrics {
			if v.Hist != nil {
				continue
			}
			switch v.Name {
			case "ccp_coord_cached_epoch":
				if v.Value > 0 {
					cached = append(cached, cachedEpoch{coordAddr: doc.Addr, site: labelValue(v.Labels, "site"), epoch: v.Value})
				}
			case "ccp_admission_offered_total":
				hasGate = true
				offered += v.Value
			case "ccp_admission_admitted_total", "ccp_admission_shed_total":
				settled += v.Value
			case "ccp_build_info":
				ver := labelValue(v.Labels, "version")
				versions[ver] = append(versions[ver], doc.Addr)
			}
		}
		// Cross-checkable direction of gate arithmetic: more settled
		// arrivals than offered is impossible bookkeeping. (offered can
		// legitimately lead settled by the queries in flight, which /varz
		// does not export — the in-process gate.accounting probe owns the
		// exact equality.)
		if hasGate && settled > offered {
			add(doc.Addr, "gate", statusRed,
				fmt.Sprintf("admitted+shed %.0f exceeds offered %.0f", settled, offered))
		}
	}

	// Leader/follower epoch agreement per site: a follower ahead of its
	// leader saw writes that never happened; one behind at zero lag has
	// silently diverged. Behind while lagging is just replication in
	// progress.
	sort.Slice(followers, func(i, j int) bool {
		if followers[i].site != followers[j].site {
			return followers[i].site < followers[j].site
		}
		return followers[i].addr < followers[j].addr
	})
	for _, f := range followers {
		st := sites[f.site]
		scope := "cluster"
		check := "epoch:site" + f.site
		switch {
		case st == nil || !st.hasLeader:
			add(scope, check, statusYellow,
				fmt.Sprintf("follower %s has no leader for site %s among the examined processes", f.addr, f.site))
		case f.epoch > st.leaderEpoch:
			add(scope, check, statusRed,
				fmt.Sprintf("follower %s epoch %.0f ahead of leader %s epoch %.0f", f.addr, f.epoch, st.leaderAddr, st.leaderEpoch))
		case f.epoch < st.leaderEpoch && f.lag == 0:
			add(scope, check, statusRed,
				fmt.Sprintf("follower %s epoch %.0f behind leader %s epoch %.0f at zero lag", f.addr, f.epoch, st.leaderAddr, st.leaderEpoch))
		case f.epoch < st.leaderEpoch:
			add(scope, check, statusYellow,
				fmt.Sprintf("follower %s epoch %.0f behind leader %s epoch %.0f, catching up (lag %.0f)", f.addr, f.epoch, st.leaderAddr, st.leaderEpoch, f.lag))
		default:
			add(scope, check, statusGreen,
				fmt.Sprintf("follower %s converged with leader %s at epoch %.0f", f.addr, st.leaderAddr, f.epoch))
		}
	}

	// Coordinator cached-partial epochs: a cached answer from an epoch the
	// serving site never reached is an answer from a future that never
	// happened.
	sort.Slice(cached, func(i, j int) bool {
		if cached[i].coordAddr != cached[j].coordAddr {
			return cached[i].coordAddr < cached[j].coordAddr
		}
		return siteLess(cached[i].site, cached[j].site)
	})
	for _, c := range cached {
		st := sites[c.site]
		check := "cache-epoch:site" + c.site
		switch {
		case st == nil || !st.hasLeader:
			add("cluster", check, statusYellow,
				fmt.Sprintf("coordinator %s caches site %s at epoch %.0f but no leader for the site was examined", c.coordAddr, c.site, c.epoch))
		case c.epoch > st.leaderEpoch:
			add("cluster", check, statusRed,
				fmt.Sprintf("coordinator %s cached epoch %.0f ahead of site %s leader epoch %.0f", c.coordAddr, c.epoch, c.site, st.leaderEpoch))
		default:
			add("cluster", check, statusGreen,
				fmt.Sprintf("coordinator %s cached epoch %.0f <= site %s leader epoch %.0f", c.coordAddr, c.epoch, c.site, st.leaderEpoch))
		}
	}

	// Build skew: mixed versions deploy fine mid-rollout but are worth a
	// yellow glance.
	if len(versions) > 1 {
		var vs []string
		for v := range versions {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		var parts []string
		for _, v := range vs {
			parts = append(parts, fmt.Sprintf("%s (%s)", v, strings.Join(versions[v], " ")))
		}
		add("cluster", "build", statusYellow, "mixed build versions: "+strings.Join(parts, ", "))
	} else if len(versions) == 1 {
		for v := range versions {
			add("cluster", "build", statusGreen, fmt.Sprintf("all processes at %s", v))
		}
	}

	return findings
}

// siteLess orders site label values numerically when both parse, lexically
// otherwise.
func siteLess(a, b string) bool {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	if aerr == nil && berr == nil {
		return ai < bi
	}
	return a < b
}
