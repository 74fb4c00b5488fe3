// Command ccpd runs one worker site of the distributed company-control
// deployment: it loads a graph, takes its share of a k-way contiguous
// partitioning, and serves partial answers to a coordinator (ccpcoord) over
// TCP. On SIGINT/SIGTERM it drains in-flight requests, logs a one-line
// summary and exits 0; on SIGQUIT it dumps its flight recorder to stderr
// and keeps serving.
//
// Usage:
//
//	ccpd -partition p2.ccpp -listen :7002 [-workers n] [-data-dir dir]
//	ccpd -graph g.ccpg -parts 4 -site 2 -listen :7002 [-workers n]
//
// The first form loads a partition file written by `ccpctl split` — each
// authority holds only its own data, the paper's deployment model. The
// second loads the full graph and slices it, convenient for demos.
//
// With -data-dir the site is durable: updates are write-ahead logged and
// checkpointed there, and a restart recovers the exact pre-kill graph and
// epoch instead of reloading the provisioning files.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ccp"
	"ccp/cmd/internal/cli"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccpd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	partPath := flag.String("partition", "", "partition file (.ccpp) to serve")
	graphPath := flag.String("graph", "", "full graph file (.ccpg binary or CSV) to slice")
	parts := flag.Int("parts", 0, "number of partitions in the deployment (with -graph)")
	site := flag.Int("site", -1, "this site's partition index (with -graph)")
	listen := flag.String("listen", ":7001", "listen address")
	workers := flag.Int("workers", 0, "reduction parallelism (0 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "durable store directory (WAL + checkpoints); updates survive restarts (empty = in-memory only)")
	noSync := flag.Bool("store-no-sync", false, "with -data-dir: skip fsync on commit (faster, loses the last updates on power failure)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	opsAddr := flag.String("ops-addr", "", "ops HTTP address serving "+cli.OpsPaths+" (empty = disabled)")
	lf := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	logger, err := lf.Logger()
	if err != nil {
		fatalf("%v", err)
	}

	// seed loads the partition from the flags. With -data-dir it only runs
	// when the store directory holds no checkpoint — after the first clean
	// checkpoint a restart recovers without touching the provisioning files.
	seed := func() (*ccp.Partition, error) {
		switch {
		case *partPath != "":
			f, err := os.Open(*partPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			p, err := ccp.ReadPartition(f)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", *partPath, err)
			}
			return p, nil
		case *graphPath != "" && *parts > 0 && *site >= 0 && *site < *parts:
			f, err := os.Open(*graphPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			var g *ccp.Graph
			if strings.HasSuffix(*graphPath, ".ccpg") {
				g, err = ccp.ReadBinaryGraph(f)
			} else {
				g, err = ccp.ReadCSVGraph(f)
			}
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", *graphPath, err)
			}
			pi, err := ccp.PartitionContiguous(g, *parts)
			if err != nil {
				return nil, err
			}
			return pi.Parts[*site], nil
		default:
			flag.Usage()
			os.Exit(2)
			panic("unreachable")
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("cannot bind %s: %v", *listen, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var srv *ccp.SiteServer
	if *dataDir != "" {
		srv, err = ccp.NewDurableSiteServer(*dataDir, seed, *workers,
			ccp.StoreOptions{NoSync: *noSync, Logger: logger})
		if err != nil {
			fatalf("opening store %s: %v", *dataDir, err)
		}
		st, _ := srv.StoreStats()
		logger.Info("site serving (durable)", "site", srv.SiteID(), "addr", l.Addr().String(),
			"data_dir", *dataDir, "durable_seq", st.DurableSeq,
			"checkpoint_seq", st.CheckpointSeq, "replayed", st.RecoveredRecords)
	} else {
		p, err := seed()
		if err != nil {
			fatalf("%v", err)
		}
		srv = ccp.NewSiteServer(p, *workers)
		logger.Info("site serving", "site", p.ID, "addr", l.Addr().String(),
			"members", len(p.Members), "boundary", len(p.Boundary()), "edges", p.Local.NumEdges())
	}
	srv.SetLogger(logger)

	// The observer (and with it the flight recorder) is always on; the ops
	// HTTP surface is opt-in.
	observer := ccp.NewObserver(ccp.ObserverConfig{Process: fmt.Sprintf("site-%d", srv.SiteID())})
	srv.Observe(observer)
	ccp.RegisterBuildInfo(observer.Registry(), "site")
	defer cli.DumpFlightOnQuit(observer)()

	ops, err := cli.StartOps(*opsAddr, observer, func() (bool, any) {
		return true, srv.Stats()
	}, logger)
	if err != nil {
		fatalf("%v", err)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case <-ctx.Done():
		stop() // a second signal kills immediately
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(dctx)
		ops.Shutdown(dctx)
		cancel()
		<-serveErr
		// Close the store only after the drain: a final checkpoint covers
		// every update the drained requests committed, so the next start
		// replays nothing.
		if cerr := srv.CloseStore(); cerr != nil {
			logger.Error("store close failed", "err", cerr)
		} else if ss, ok := srv.StoreStats(); ok {
			logger.Info("store closed", "durable_seq", ss.DurableSeq, "checkpoint_seq", ss.CheckpointSeq)
		}
		st := srv.Stats()
		if err != nil {
			logger.Error("drain budget exceeded, forced close", "drain", *drain,
				"requests", st.Requests, "conns_drained", st.ConnsDrained, "conns_accepted", st.ConnsAccepted)
			os.Exit(1)
		}
		logger.Info("shut down cleanly",
			"requests", st.Requests, "conns_drained", st.ConnsDrained, "conns_accepted", st.ConnsAccepted)
	case err := <-serveErr:
		if err != nil {
			fatalf("serving %s: %v", *listen, err)
		}
	}
}
