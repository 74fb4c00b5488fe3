// Command ccpctl generates, inspects and queries company shareholding
// graphs from the command line.
//
// Usage:
//
//	ccpctl gen    -type scalefree|italian|eu|riad|random -nodes n [-degree d] [-rate r] [-countries k] [-seed n] -out file
//	ccpctl stats  -in file
//	ccpctl query  -in file -s id -t id [-solver cbe|reduce|datalog|dist]
//	ccpctl owned  -in file -s id [-list]
//
// Graph files use the compact CCPG1 binary format with a .ccpg extension, or
// CSV ("from,to,weight" lines) with any other extension. Global flags
// (-log-level, -log-format) go before the subcommand.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"ccp"
	"ccp/cmd/internal/cli"
	"ccp/internal/datalog"
)

// logger is the process logger, built from the global -log-level /
// -log-format flags before dispatch.
var logger = slog.Default()

func main() {
	lf := cli.RegisterLogFlags(flag.CommandLine)
	flag.Usage = func() { usage() }
	flag.Parse() // stops at the first non-flag: the subcommand
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	if logger, err = lf.Logger(); err != nil {
		fmt.Fprintf(os.Stderr, "ccpctl: %v\n", err)
		os.Exit(2)
	}
	switch args[0] {
	case "gen":
		err = cmdGen(args[1:])
	case "stats":
		err = cmdStats(args[1:])
	case "query":
		err = cmdQuery(args[1:])
	case "owned":
		err = cmdOwned(args[1:])
	case "explain":
		err = cmdExplain(args[1:])
	case "split":
		err = cmdSplit(args[1:])
	case "groups":
		err = cmdGroups(args[1:])
	case "datalog":
		err = cmdDatalog(args[1:])
	case "flight":
		err = cmdFlight(args[1:])
	case "doctor":
		err = cmdDoctor(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccpctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ccpctl gen     -type scalefree|italian|eu|riad|random -nodes n [-degree d] [-rate r] [-countries k] [-seed n] -out file
  ccpctl stats   -in file
  ccpctl query   -in file -s id -t id [-solver cbe|reduce|datalog|dist] [-explain]
  ccpctl owned   -in file -s id [-list]
  ccpctl explain -in file -s id -t id
  ccpctl split   -in file -parts k -outprefix p       (writes p0.ccpp, p1.ccpp, ...)
  ccpctl groups  -in file [-top n]                    (control groups by ultimate controller)
  ccpctl datalog -in file -s id [-t id] [-program f] [-explain]
                                                      (evaluate the company control program,
                                                      or program f, bottom-up over own = the
                                                      graph, read-only, and source(s))
  ccpctl flight  [-ops host:port,...] [-in dump.json,...] [-trace hex]
                                                      (merged cross-process flight timeline)
  ccpctl doctor  -ops host:port[,...] [-in file,...] [-view checks|fleet|store|top] [-watch d] [-json]
                                                      (cluster ops views over each process's
                                                      /varz. checks: reachability and
                                                      cross-process cache/gate/build checks,
                                                      exits nonzero on any red; fleet: site
                                                      epochs, site connections, sheds; store:
                                                      epoch, durable/checkpoint seq, WAL
                                                      backlog; top: load, latency, caches)
-s and -t must name live companies of the graph.
global flags (before the subcommand): -log-level debug|info|warn|error, -log-format text|json`)
}

func saveGraph(g *ccp.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".ccpg") {
		if err := g.WriteBinary(f); err != nil {
			return err
		}
	} else if err := g.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func loadGraph(path string) (*ccp.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".ccpg") {
		return ccp.ReadBinaryGraph(f)
	}
	return ccp.ReadCSVGraph(f)
}

// companies resolves the -s and -t flags against g: each must name a live
// company of the graph, or the command would answer for a company the file
// does not hold. A negative t means -t was not given and resolves to -1.
func companies(g *ccp.Graph, s, t int) (src, tgt ccp.NodeID, err error) {
	if src, err = company(g, "-s", s); err != nil {
		return 0, 0, err
	}
	if t < 0 {
		return src, -1, nil
	}
	tgt, err = company(g, "-t", t)
	return src, tgt, err
}

func company(g *ccp.Graph, flagName string, id int) (ccp.NodeID, error) {
	v := ccp.NodeID(id)
	if int(v) != id || !g.Alive(v) {
		return 0, fmt.Errorf("%s %d: no such company in the graph (%d companies)", flagName, id, g.NumNodes())
	}
	return v, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	typ := fs.String("type", "scalefree", "scalefree|italian|eu|riad|random")
	nodes := fs.Int("nodes", 100_000, "number of companies (per country for eu)")
	degree := fs.Float64("degree", 2, "average out-degree (scalefree, eu)")
	rate := fs.Float64("rate", 0.01, "interconnection rate (eu)")
	countries := fs.Int("countries", 4, "countries (eu)")
	seed := fs.Int64("seed", 42, "random seed")
	out := fs.String("out", "", "output file (.ccpg = binary, else CSV)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var g *ccp.Graph
	switch *typ {
	case "scalefree":
		g = ccp.GenerateScaleFree(ccp.ScaleFreeConfig{Nodes: *nodes, AvgOutDegree: *degree, Seed: *seed})
	case "italian":
		g = ccp.GenerateItalian(ccp.ItalianConfig{Nodes: *nodes, Seed: *seed})
	case "eu":
		g = ccp.GenerateEU(ccp.EUConfig{
			Countries:        *countries,
			NodesPerCountry:  *nodes,
			InterconnectRate: *rate,
			AvgOutDegree:     *degree,
			Seed:             *seed,
		}).G
	case "riad":
		g = ccp.GenerateRIAD(ccp.RIADConfig{Nodes: *nodes, Seed: *seed})
	case "random":
		g = ccp.GenerateRandom(*nodes, int(float64(*nodes)**degree), *seed)
	default:
		return fmt.Errorf("gen: unknown type %q", *typ)
	}
	if err := saveGraph(g, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d companies, %d shareholdings\n", *out, g.NumNodes(), g.NumEdges())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	verbose := fs.Bool("v", false, "degree and component distributions, top owners")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	if *verbose {
		_, err := ccp.Report(g).WriteTo(os.Stdout)
		return err
	}
	s := ccp.Summarize(g)
	fmt.Printf("nodes        %d\n", s.Nodes)
	fmt.Printf("edges        %d\n", s.Edges)
	fmt.Printf("avg out-deg  %.3f (max %d)\n", s.AvgOut, s.MaxOut)
	fmt.Printf("SCCs         %d (largest %d)\n", s.SCCs, s.LargestSCC)
	fmt.Printf("WCCs         %d (largest %d)\n", s.WCCs, s.LargestWCC)
	fmt.Printf("alpha (fit)  %.2f\n", s.Alpha)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	s := fs.Int("s", -1, "source company")
	t := fs.Int("t", -1, "target company")
	solver := fs.String("solver", "cbe", "cbe|reduce|datalog|dist")
	parts := fs.Int("parts", 2, "partitions for -solver dist (in-process sites)")
	verbose := fs.Bool("verbose", false, "print the stitched query trace (-solver dist only)")
	explain := fs.Bool("explain", false, "print the rounds and per-rule counts (-solver datalog only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *s < 0 || *t < 0 {
		return fmt.Errorf("query: -in, -s and -t are required")
	}
	if *verbose && *solver != "dist" {
		return fmt.Errorf("query: -verbose requires -solver dist")
	}
	if *explain && *solver != "datalog" {
		return fmt.Errorf("query: -explain requires -solver datalog")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	src, tgt, err := companies(g, *s, *t)
	if err != nil {
		return err
	}
	if *solver == "dist" {
		return queryDist(g, src, tgt, *parts, *verbose)
	}
	start := time.Now()
	var ans bool
	var report *datalog.Explain
	switch *solver {
	case "cbe":
		ans = ccp.Controls(g, src, tgt)
	case "reduce":
		res, rerr := ccp.Reduce(context.Background(), g, src, tgt, nil, 0)
		if rerr != nil {
			return rerr
		}
		ans = res.Controls
	case "datalog":
		ans, report, err = datalog.ControlsExplain(g, src, tgt)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("query: unknown solver %q", *solver)
	}
	fmt.Printf("q_c(%d,%d) = %v  [%s, %v]\n", *s, *t, ans, *solver, time.Since(start))
	if *explain && report != nil {
		fmt.Print(report.String())
	}
	return nil
}

// queryDist answers one query over an in-process cluster of k contiguous
// partitions — the distributed solver without the TCP deployment. With
// verbose it prints the query's stitched cross-site trace — the same
// timeline `ccpctl flight -trace` shows for a deployed cluster.
func queryDist(g *ccp.Graph, s, t ccp.NodeID, parts int, verbose bool) error {
	observer := ccp.NewObserver(ccp.ObserverConfig{})
	ccp.RegisterBuildInfo(observer.Registry(), "ctl")
	cluster, err := ccp.NewLocalCluster(g, parts, ccp.ClusterOptions{Observer: observer})
	if err != nil {
		return err
	}
	defer cluster.Close()
	start := time.Now()
	ans, m, tr, err := cluster.ControlsTraced(context.Background(), s, t)
	if err != nil {
		return err
	}
	fmt.Printf("q_c(%d,%d) = %v  [dist, %d sites, %v]\n", s, t, ans, parts, time.Since(start))
	if !verbose {
		return nil
	}
	fmt.Printf("site-max=%v coord=%v traffic=%dB partial=%d+%dn merged=%d+%dn\n",
		m.MaxSiteTime, m.CoordinatorTime, m.BytesTransferred,
		m.PartialNodes, m.PartialEdges, m.MergedNodes, m.MergedEdges)
	return tr.WriteTimeline(os.Stdout)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	s := fs.Int("s", -1, "source company")
	t := fs.Int("t", -1, "target company")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *s < 0 || *t < 0 {
		return fmt.Errorf("explain: -in, -s and -t are required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	src, tgt, err := companies(g, *s, *t)
	if err != nil {
		return err
	}
	steps, ok := ccp.Explain(g, src, tgt)
	if !ok {
		fmt.Printf("%d does not control %d\n", *s, *t)
		return nil
	}
	fmt.Printf("%d controls %d through %d takeovers:\n", *s, *t, len(steps))
	for _, st := range steps {
		fmt.Printf("  company %d (%.1f%%):", st.Company, st.Total*100)
		for _, e := range st.Stakes {
			fmt.Printf(" %.1f%% from %d,", e.Weight*100, e.From)
		}
		fmt.Println()
	}
	return nil
}

func cmdSplit(args []string) error {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	parts := fs.Int("parts", 0, "number of partitions")
	prefix := fs.String("outprefix", "", "output file prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *parts <= 0 || *prefix == "" {
		return fmt.Errorf("split: -in, -parts and -outprefix are required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	pi, err := ccp.PartitionContiguous(g, *parts)
	if err != nil {
		return err
	}
	for i, p := range pi.Parts {
		path := fmt.Sprintf("%s%d.ccpp", *prefix, i)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := p.WriteBinary(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d members, %d boundary nodes, %d edges\n",
			path, len(p.Members), len(p.Boundary()), p.Local.NumEdges())
	}
	return nil
}

// cmdDatalog evaluates a recursive Datalog program over the graph, bound in
// place as the read-only own relation, and source(s) — by default the
// paper's company control program.
func cmdDatalog(args []string) error {
	fs := flag.NewFlagSet("datalog", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	s := fs.Int("s", -1, "source company (seeds source/1)")
	t := fs.Int("t", -1, "optional target; omit to print the controlled count")
	program := fs.String("program", "", "program file (default: the company control program)")
	explain := fs.Bool("explain", false, "print the rounds and per-rule counts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *s < 0 {
		return fmt.Errorf("datalog: -in and -s are required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	source, _, err := companies(g, *s, *t)
	if err != nil {
		return err
	}
	src := datalog.ProgramText()
	if *program != "" {
		data, err := os.ReadFile(*program)
		if err != nil {
			return err
		}
		src = string(data)
	}
	e, err := datalog.NewProgram(g, src, source)
	if err != nil {
		return err
	}
	start := time.Now()
	iters, report := e.Run()
	elapsed := time.Since(start)
	if *t >= 0 {
		fmt.Printf("control(%d,%d) = %v  [%d iterations, %v]\n",
			*s, *t, e.Has("control", int64(*s), int64(*t)), iters, elapsed)
	} else {
		fmt.Printf("control(%d, _) has %d tuples  [%d iterations, %v]\n",
			*s, e.Count("control"), iters, elapsed)
	}
	if *explain {
		fmt.Print(report.String())
	}
	return nil
}

func cmdGroups(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	top := fs.Int("top", 20, "print the n largest groups")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("groups: -in is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	groups := ccp.ControlGroups(g)
	fmt.Printf("%d control groups with 2+ members\n", len(groups))
	if *top > len(groups) {
		*top = len(groups)
	}
	for _, gr := range groups[:*top] {
		fmt.Printf("  head %-8d members %d\n", gr.Head, len(gr.Members))
	}
	return nil
}

func cmdOwned(args []string) error {
	fs := flag.NewFlagSet("owned", flag.ExitOnError)
	in := fs.String("in", "", "graph file")
	s := fs.Int("s", -1, "source company")
	list := fs.Bool("list", false, "print every controlled company id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *s < 0 {
		return fmt.Errorf("owned: -in and -s are required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	src, _, err := companies(g, *s, -1)
	if err != nil {
		return err
	}
	set := ccp.ControlledSet(g, src)
	fmt.Printf("company %d controls %d companies\n", *s, len(set)-1)
	if *list {
		for v := range set {
			if v != ccp.NodeID(*s) {
				fmt.Println(v)
			}
		}
	}
	return nil
}
