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

	"ccp/internal/obs"
)

// varzDoc is the /varz payload shape (the slow_queries list is ignored).
type varzDoc struct {
	Metrics []obs.VarSnapshot `json:"metrics"`
}

// sum totals a (possibly labeled) family: the values of counters and
// gauges, the observation counts of histograms.
func (d varzDoc) sum(name string) (total float64, found bool) {
	for _, v := range d.Metrics {
		if v.Name != name {
			continue
		}
		if v.Hist != nil {
			total += float64(v.Hist.Count)
		} else {
			total += v.Value
		}
		found = true
	}
	return total, found
}

// hist returns the first histogram of the family (the query-latency series
// is registered once, unlabeled).
func (d varzDoc) hist(name string) *obs.HistogramSnapshot {
	for _, v := range d.Metrics {
		if v.Name == name && v.Hist != nil {
			return v.Hist
		}
	}
	return nil
}

// groups buckets the counter and gauge series by label set: label set ->
// series name -> value. A label set is one thing behind the endpoint — a
// site (`site="0"`), a site connection (`site_addr="..."`), a shed reason.
func (d varzDoc) groups() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, v := range d.Metrics {
		if v.Hist != nil {
			continue
		}
		m := out[v.Labels]
		if m == nil {
			m = map[string]float64{}
			out[v.Labels] = m
		}
		m[v.Name] += v.Value
	}
	return out
}

// doctorDoc is one process's ops state: its /varz payload under its
// address. Every `ccpctl doctor` view renders a list of these, scraped one
// per -ops endpoint or read from -in files.
type doctorDoc struct {
	Addr string    `json:"addr"`
	Err  string    `json:"err,omitempty"` // scrape failure; the payload is empty
	Varz varzDoc   `json:"varz"`
	at   time.Time // scrape time, for the top view's rates
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

// doctorViews renders the collected documents; prev is the previous -watch
// round's, for rates.
var doctorViews = map[string]func(docs, prev []doctorDoc, asJSON bool) error{
	"checks": viewChecks,
	"fleet":  viewFleet,
	"store":  viewStore,
	"top":    viewTop,
}

// cmdDoctor collects every process's ops document and renders one view of
// the set. The default view, checks, is the cluster-wide health report:
// every process reachable, plus the cross-process checks no single process
// can run alone — coordinator cached-partial epochs never ahead of their
// site, admission arithmetic, build skew. It prints a
// green/yellow/red table and exits nonzero if anything is red. fleet, store
// and top render the serving topology, the durable stores, and load and
// latency.
func cmdDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	opsList := fs.String("ops", "", "comma-separated ops addresses (host:port or URL) to examine")
	inList := fs.String("in", "", "comma-separated files holding saved doctor documents (JSON object or array) to examine instead of or alongside -ops")
	view := fs.String("view", "checks", "checks (verdict table), fleet (sites and coordinators), store (durable stores) or top (load and latency)")
	watch := fs.Duration("watch", 0, "re-collect and re-render at this interval until interrupted (0 = once)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-endpoint scrape timeout")
	asJSON := fs.Bool("json", false, "emit JSON instead of the table (checks, fleet, store)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	render := doctorViews[*view]
	if render == nil {
		return fmt.Errorf("doctor: unknown -view %q (checks, fleet, store, top)", *view)
	}
	addrs := splitList(*opsList)
	files := splitList(*inList)
	if len(addrs) == 0 && len(files) == 0 {
		return fmt.Errorf("doctor: -ops or -in is required")
	}

	client := &http.Client{Timeout: *timeout}
	var prev []doctorDoc
	for {
		docs, err := collect(client, addrs, files)
		if err != nil {
			return err
		}
		err = render(docs, prev, *asJSON)
		if *watch <= 0 {
			return err
		}
		prev = docs
		time.Sleep(*watch)
		fmt.Print("\033[2J\033[H") // clear + home between refreshes
	}
}

// collect is the one scraper: each -ops address's /varz, then the
// documents saved in each -in file. A process whose /varz cannot be read is
// unexaminable — a red scrape finding.
func collect(client *http.Client, addrs, files []string) ([]doctorDoc, error) {
	var docs []doctorDoc
	for _, addr := range addrs {
		doc := doctorDoc{Addr: addr}
		if err := opsGet(client, addr, "/varz", &doc.Varz); err != nil {
			doc.Err = err.Error()
		}
		doc.at = time.Now()
		docs = append(docs, doc)
	}
	for _, path := range files {
		fd, err := readDoctorDocs(path)
		if err != nil {
			return nil, fmt.Errorf("doctor: %s: %w", path, err)
		}
		docs = append(docs, fd...)
	}
	return docs, nil
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

// viewChecks prints the verdict table (or -json findings) and a summary
// line, and fails if any check is red.
func viewChecks(docs, _ []doctorDoc, asJSON bool) error {
	findings := runDoctor(docs)

	if asJSON {
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

// runDoctor evaluates every per-process and cross-process check over the
// joined documents. Pure: no I/O, deterministic order — the unit doctor_test
// drives it directly.
func runDoctor(docs []doctorDoc) []doctorFinding {
	var findings []doctorFinding
	add := func(scope, check, status, detail string) {
		findings = append(findings, doctorFinding{Scope: scope, Check: check, Status: status, Detail: detail})
	}

	// Per-process: reachability.
	for _, doc := range docs {
		if doc.Err != "" {
			add(doc.Addr, "scrape", statusRed, doc.Err)
			continue
		}
		add(doc.Addr, "scrape", statusGreen, fmt.Sprintf("%d series", len(doc.Varz.Metrics)))
	}

	// Cross-process state, assembled from every reachable /varz.
	sites := map[string]siteRow{} // site -> the process serving it
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
		rows, _ := classifyFleet(doc.Addr, doc.Varz)
		for _, row := range rows {
			sites[row.Site] = row
		}
		for labels, m := range doc.Varz.groups() {
			if epoch, ok := m["ccp_coord_cached_epoch"]; ok && epoch >= 0 { // -1: none cached
				cached = append(cached, cachedEpoch{coordAddr: doc.Addr, site: labelValue(labels, "site"), epoch: epoch})
			}
			if _, ok := m["ccp_build_info"]; ok {
				ver := labelValue(labels, "version")
				versions[ver] = append(versions[ver], doc.Addr)
			}
		}
		// Cross-checkable direction of gate arithmetic: more settled
		// arrivals than offered is impossible bookkeeping. (offered can
		// legitimately lead settled by the arrivals still being decided,
		// which /varz does not export.)
		offered, hasGate := doc.Varz.sum("ccp_admission_offered_total")
		admitted, _ := doc.Varz.sum("ccp_admission_admitted_total")
		shed, _ := doc.Varz.sum("ccp_admission_shed_total")
		if hasGate && admitted+shed > offered {
			add(doc.Addr, "gate", statusRed,
				fmt.Sprintf("admitted+shed %.0f exceeds offered %.0f", admitted+shed, offered))
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
		site, ok := sites[c.site]
		check := "cache-epoch:site" + c.site
		switch {
		case !ok:
			add("cluster", check, statusYellow,
				fmt.Sprintf("coordinator %s caches site %s at epoch %.0f but the site was not examined", c.coordAddr, c.site, c.epoch))
		case c.epoch > site.Epoch:
			add("cluster", check, statusRed,
				fmt.Sprintf("coordinator %s cached epoch %.0f ahead of site %s epoch %.0f", c.coordAddr, c.epoch, c.site, site.Epoch))
		default:
			add("cluster", check, statusGreen,
				fmt.Sprintf("coordinator %s cached epoch %.0f <= site %s epoch %.0f", c.coordAddr, c.epoch, c.site, site.Epoch))
		}
	}

	// Build skew: mixed versions deploy fine mid-rollout but are worth a
	// yellow glance.
	if len(versions) > 1 {
		var parts []string
		for _, v := range sortedKeys(versions) {
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
