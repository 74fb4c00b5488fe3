// Command ccpcoord runs the coordinator of a distributed company-control
// deployment: it connects to ccpd worker sites and answers control queries
// by partial evaluation and merging (Algorithm 2 of the paper).
//
// Usage:
//
//	ccpcoord -sites host:7001,host:7002 [-cache] [-precompute] -s 12 -t 9441
//
// Pass several queries as trailing "s:t" arguments to amortize the
// connections, e.g.:
//
//	ccpcoord -sites a:7001,b:7001 -cache -precompute 12:9441 7:15
//
// With -concurrency n > 1, trailing queries are answered as one batch with
// up to n queries in flight at once, multiplexed over the site connections.
// With -timeout d, every query carries deadline d, enforced at the sites;
// SIGINT/SIGTERM cancels whatever is in flight. With -max-inflight n,
// admission control sheds queries beyond the configured concurrency and
// queue instead of letting a saturated tier drag every query's tail.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ccp"
	"ccp/cmd/internal/cli"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccpcoord: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	sites := flag.String("sites", "", "comma-separated worker addresses")
	cache := flag.Bool("cache", false, "serve non-endpoint sites from their pre-computed reductions")
	precompute := flag.Bool("precompute", false, "ask all sites to pre-compute before querying")
	s := flag.Int("s", -1, "source company (alternative to trailing s:t args)")
	t := flag.Int("t", -1, "target company")
	workers := flag.Int("workers", 0, "coordinator reduction parallelism")
	concurrency := flag.Int("concurrency", 1, "batch queries kept in flight at once (>1 answers the trailing queries as one concurrent batch)")
	timeout := flag.Duration("timeout", 0, "per-query deadline, enforced at the sites (0 = none)")
	opsAddr := flag.String("ops-addr", "", "ops HTTP address serving "+cli.OpsPaths+" (empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0, "mark queries at least this slow with a slow.query event, listed by query id in /varz's slow_queries (0 = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: queries running at once before new ones queue (0 = unlimited, no admission control)")
	maxQueue := flag.Int("max-queue", 0, "admission control: queries waiting beyond -max-inflight before shedding (0 = 2x max-inflight)")
	maxQueueWait := flag.Duration("max-queue-wait", 0, "admission control: longest a queued query waits before shedding (0 = 50ms)")
	flightOut := flag.String("flight-out", "", "write the coordinator's flight-recorder dump (JSON) here on exit")
	lf := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if *sites == "" {
		flag.Usage()
		os.Exit(2)
	}
	logger, err := lf.Logger()
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The observer (and its flight recorder) is always on; the ops HTTP
	// surface and the slow-query threshold remain opt-in.
	observer := ccp.NewObserver(ccp.ObserverConfig{SlowQueryThreshold: *slowQuery, Process: "coord"})
	ccp.RegisterBuildInfo(observer.Registry(), "coordinator")
	defer cli.DumpFlightOnQuit(observer)()
	if *flightOut != "" {
		defer func() {
			f, err := os.Create(*flightOut)
			if err != nil {
				logger.Error("cannot write flight dump", "path", *flightOut, "err", err)
				return
			}
			werr := cli.WriteFlightDump(f, observer)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				logger.Error("cannot write flight dump", "path", *flightOut, "err", werr)
			}
		}()
	}

	cluster, err := ccp.ConnectCluster(ctx, strings.Split(*sites, ","), ccp.ClusterOptions{
		UseCache:           *cache,
		CoordinatorWorkers: *workers,
		Concurrency:        *concurrency,
		MaxInFlight:        *maxInflight,
		MaxQueuedQueries:   *maxQueue,
		MaxQueueWait:       *maxQueueWait,
		Observer:           observer,
		Logger:             logger,
	})
	if err != nil {
		fatalf("cannot connect: %v", err)
	}
	defer cluster.Close()
	logger.Info("connected", "sites", cluster.Sites())

	// /healthz reports liveness only: a site that is down is one whose next
	// call redials, and ccp_client_connected on /metrics says which.
	ops, err := cli.StartOps(*opsAddr, observer, nil, logger)
	if err != nil {
		fatalf("%v", err)
	}
	defer ops.Shutdown(context.Background())
	// queryCtx derives one query's context, carrying the -timeout deadline.
	queryCtx := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(ctx, *timeout)
		}
		return context.WithCancel(ctx)
	}

	if *precompute {
		start := time.Now()
		if err := cluster.Precompute(ctx); err != nil {
			fatalf("precompute: %v", err)
		}
		logger.Info("pre-computed all partial answers", "elapsed", time.Since(start))
	}

	var queries [][2]int
	if *s >= 0 && *t >= 0 {
		queries = append(queries, [2]int{*s, *t})
	}
	for _, arg := range flag.Args() {
		parts := strings.SplitN(arg, ":", 2)
		if len(parts) != 2 {
			fatalf("bad query %q, want s:t", arg)
		}
		qs, err1 := strconv.Atoi(parts[0])
		qt, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			fatalf("bad query %q, want s:t", arg)
		}
		queries = append(queries, [2]int{qs, qt})
	}
	if len(queries) == 0 {
		fatalf("no queries (use -s/-t or trailing s:t args)")
	}

	answered := 0
	start := time.Now()
	defer func() {
		logger.Info("done", "answered", answered, "queries", len(queries),
			"sites", cluster.Sites(), "elapsed", time.Since(start))
	}()

	if *concurrency > 1 && len(queries) > 1 {
		pairs := make([][2]ccp.NodeID, len(queries))
		for i, q := range queries {
			pairs[i] = [2]ccp.NodeID{ccp.NodeID(q[0]), ccp.NodeID(q[1])}
		}
		bctx, cancel := queryCtx()
		ans, m, err := cluster.ControlsBatch(bctx, pairs)
		cancel()
		if err != nil {
			fatalf("batch: %v", err)
		}
		elapsed := time.Since(start)
		for i, q := range queries {
			fmt.Printf("q_c(%d,%d) = %v\n", q[0], q[1], ans[i])
		}
		answered = len(queries)
		qpm := 0.0
		if elapsed > 0 {
			qpm = float64(len(queries)) / elapsed.Minutes()
		}
		fmt.Printf("batch: %d queries in %v (%.0f q/min, concurrency %d)  traffic=%dB cache-hits=%d coord-cache-hits=%d\n",
			len(queries), elapsed, qpm, *concurrency,
			m.BytesTransferred, m.CacheHits, m.CoordCacheHits)
		return
	}

	for _, q := range queries {
		qstart := time.Now()
		qctx, cancel := queryCtx()
		ans, m, err := cluster.Controls(qctx, ccp.NodeID(q[0]), ccp.NodeID(q[1]))
		cancel()
		if err != nil {
			fatalf("q_c(%d,%d): %v", q[0], q[1], err)
		}
		answered++
		where := "merged at coordinator"
		if m.DecidedBySite >= 0 {
			where = fmt.Sprintf("decided by site %d", m.DecidedBySite)
		}
		fmt.Printf("q_c(%d,%d) = %-5v  %-12v  %s  site-max=%v coord=%v traffic=%dB cache-hits=%d\n",
			q[0], q[1], ans, time.Since(qstart), where,
			m.MaxSiteTime, m.CoordinatorTime, m.BytesTransferred, m.CacheHits)
	}
}
