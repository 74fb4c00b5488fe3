package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"ccp/internal/obs"
)

// varzDoc is the /varz payload shape (the slow-query fields are ignored).
type varzDoc struct {
	Metrics []obs.VarSnapshot `json:"metrics"`
}

// topSample is one endpoint's scraped state at one refresh.
type topSample struct {
	at   time.Time
	vars []obs.VarSnapshot
}

// sum totals a (possibly labeled) counter/gauge family.
func (s *topSample) sum(name string) (total float64, found bool) {
	for _, v := range s.vars {
		if v.Name == name && v.Hist == nil {
			total += v.Value
			found = true
		}
	}
	return total, found
}

// hist returns the first histogram of the family (the query-latency series
// is registered once, unlabeled).
func (s *topSample) hist(name string) *obs.HistogramSnapshot {
	for _, v := range s.vars {
		if v.Name == name && v.Hist != nil {
			return v.Hist
		}
	}
	return nil
}

// circuitCounts tallies the per-site circuit-state gauges by position.
func (s *topSample) circuitCounts() (closed, open, half int) {
	for _, v := range s.vars {
		if v.Name != "ccp_client_circuit_state" || v.Hist != nil {
			continue
		}
		switch v.Value {
		case 1:
			open++
		case 2:
			half++
		default:
			closed++
		}
	}
	return closed, open, half
}

// cmdTop is a refresh-loop terminal view of one or more running processes'
// ops endpoints: query throughput and latency quantiles, cache hit rates,
// circuit-breaker positions, and reduction-round rates, recomputed from
// /varz deltas every interval.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	opsList := fs.String("ops", "", "comma-separated ops addresses (host:port or URL) to poll")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	n := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitList(*opsList)
	if len(addrs) == 0 {
		return fmt.Errorf("top: -ops is required")
	}
	client := &http.Client{Timeout: *interval}

	scrape := func(addr string) (*topSample, error) {
		var doc varzDoc
		if err := opsGet(client, addr, "/varz", &doc); err != nil {
			return nil, err
		}
		return &topSample{at: time.Now(), vars: doc.Metrics}, nil
	}

	prev := make(map[string]*topSample, len(addrs))
	for i := 0; *n <= 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
			fmt.Print("\033[2J\033[H") // clear + home between refreshes
		}
		fmt.Printf("ccp top — %d endpoint(s), refresh %v, %s\n",
			len(addrs), *interval, time.Now().Format("15:04:05"))
		for _, addr := range addrs {
			cur, err := scrape(addr)
			if err != nil {
				fmt.Printf("\n== %s ==\n  unreachable: %v\n", addr, err)
				delete(prev, addr)
				continue
			}
			renderTop(os.Stdout, addr, cur, prev[addr])
			prev[addr] = cur
		}
	}
	return nil
}

// rate computes the per-second delta of a counter family between samples,
// or -1 when no previous sample exists.
func rate(cur, last *topSample, name string) float64 {
	if last == nil {
		return -1
	}
	dt := cur.at.Sub(last.at).Seconds()
	if dt <= 0 {
		return -1
	}
	a, _ := cur.sum(name)
	b, _ := last.sum(name)
	return (a - b) / dt
}

func fmtRate(r float64) string {
	if r < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/s", r)
}

// hitRate renders hits/(hits+misses) as a percentage, or "-" when the
// series are absent or empty.
func hitRate(s *topSample, hitsName, missesName string) string {
	hits, ok1 := s.sum(hitsName)
	misses, ok2 := s.sum(missesName)
	if (!ok1 && !ok2) || hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%% (%0.f/%0.f)", 100*hits/(hits+misses), hits, hits+misses)
}

// renderTop prints one endpoint's section of the top view.
func renderTop(w *os.File, addr string, cur, last *topSample) {
	fmt.Fprintf(w, "\n== %s ==\n", addr)

	if q, ok := cur.sum("ccp_queries_total"); ok {
		fmt.Fprintf(w, "  queries   %8.0f total   %s\n", q, fmtRate(rate(cur, last, "ccp_queries_total")))
	}
	if h := cur.hist("ccp_query_seconds"); h != nil && h.Count > 0 {
		fmt.Fprintf(w, "  latency   p50=%v p95=%v p99=%v (n=%d)\n",
			time.Duration(h.Quantile(0.50)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond),
			h.Count)
	}
	if hr := hitRate(cur, "ccp_coord_cache_hits_total", "ccp_coord_cache_misses_total"); hr != "-" {
		fmt.Fprintf(w, "  coord-cache  %s hit\n", hr)
	}
	if hits, ok := cur.sum("ccp_site_cache_hits_total"); ok {
		fmt.Fprintf(w, "  site-cache   %8.0f hits   %s\n", hits, fmtRate(rate(cur, last, "ccp_site_cache_hits_total")))
	}
	if rounds, ok := cur.sum("ccp_reduce_rounds_total"); ok {
		fmt.Fprintf(w, "  reduce    %8.0f rounds  %s\n", rounds, fmtRate(rate(cur, last, "ccp_reduce_rounds_total")))
	}
	if reqs, ok := cur.sum("ccp_server_requests_total"); ok {
		fmt.Fprintf(w, "  served    %8.0f reqs    %s\n", reqs, fmtRate(rate(cur, last, "ccp_server_requests_total")))
	}
	closed, open, half := cur.circuitCounts()
	if closed+open+half > 0 {
		fmt.Fprintf(w, "  circuits  %d closed, %d open, %d half-open\n", closed, open, half)
	}
}
