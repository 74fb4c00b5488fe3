// Command ccpbench regenerates the figures and tables of the paper's
// evaluation section on synthetic graphs.
//
// Usage:
//
//	ccpbench [-scale f] [-seed n] [-workers n] [-repeats n] <experiment>...
//
// Experiments: fig8a fig8b fig8c fig8d fig8e fig8f fig8g fig8h nettraffic
// riad serial ablations fig9a fig9b contrast updates, or "all". Results go
// to stdout only; serving-path performance is measured by benchmark/ (see
// BENCHMARK.json), not here.
//
// Sizes default to laptop scale; pass -scale 10 (or more) to approach the
// paper's graph sizes.
package main

import (
	"flag"
	"fmt"
	"os"

	"ccp/internal/experiments"
)

// newFlags declares ccpbench's flags, bound to cfg.
func newFlags(cfg *experiments.Config) *flag.FlagSet {
	fs := flag.NewFlagSet("ccpbench", flag.ExitOnError)
	fs.Float64Var(&cfg.Scale, "scale", 1, "multiply all default graph sizes")
	fs.Int64Var(&cfg.Seed, "seed", 42, "random seed")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker parallelism (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Repeats, "repeats", 1, "average each timed point over n runs")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: ccpbench [flags] <experiment>...\nexperiments: %v\nflags:\n", names())
		fs.PrintDefaults()
	}
	return fs
}

func main() {
	var cfg experiments.Config
	fs := newFlags(&cfg)
	fs.Parse(os.Args[1:]) // ExitOnError: a bad flag prints usage and exits 2
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	args := fs.Args()
	if len(args) == 1 && args[0] == "all" {
		args = names()
	}
	for _, name := range args {
		if err := run(name, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ccpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func names() []string {
	return []string{
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
		"nettraffic", "riad", "serial", "ablations", "fig9a", "fig9b", "contrast", "updates",
	}
}

// printAll renders a slice of fmt.Stringer-ish rows.
func printAll[T fmt.Stringer](title string, rows []T) {
	fmt.Printf("== %s ==\n", title)
	for _, r := range rows {
		fmt.Printf("  %s\n", r)
	}
	fmt.Println()
}

func run(name string, cfg experiments.Config) error {
	switch name {
	case "fig8a":
		pts, err := experiments.Fig8a(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.a — elapsed time by partition size (4 partitions, 1% interconnection)", pts)
	case "fig8b":
		pts, err := experiments.Fig8b(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.b — elapsed time by number of partitions", pts)
	case "fig8c":
		pts, err := experiments.Fig8c(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.c — elapsed time by interconnection rate (%)", pts)
	case "fig8d":
		pts, err := experiments.Fig8d(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.d — elapsed time by number of cores (Italian graph)", pts)
	case "fig8e":
		pts, err := experiments.Fig8e(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.e — elapsed time by number of nodes (Italian graph)", pts)
	case "fig8f":
		pts, err := experiments.Fig8f(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.f — elapsed time by number of edges and out-degree", pts)
	case "fig8g":
		pts, err := experiments.Fig8g(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.g — speedup of distributed over centralized (T_C/T_D)", pts)
	case "fig8h":
		pts, err := experiments.Fig8h(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.h — speedup of pre-caching over live evaluation", pts)
	case "nettraffic":
		rows, err := experiments.NetworkTraffic(cfg)
		if err != nil {
			return err
		}
		printAll("Network traffic — 4 sites, 0.1% interconnection", rows)
	case "riad":
		r, err := experiments.RIAD(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("== RIAD — parallel runtime and speedup over serial baseline ==\n  %s\n\n", r)
	case "serial":
		rows, err := experiments.SerialSpeedup(cfg)
		if err != nil {
			return err
		}
		printAll("Serial baseline — parallel vs naive fixpoint by density", rows)
	case "ablations":
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		printAll("Ablations — algorithm variants on the Italian graph", rows)
	case "fig9a":
		pts, err := experiments.Fig9a(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 9.a — path enumeration (Neo4j substitute) by nodes", pts)
	case "fig9b":
		pts, err := experiments.Fig9b(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 9.b — path enumeration (Neo4j substitute) by edges and degree", pts)
	case "contrast":
		rows, err := experiments.Contrast(cfg)
		if err != nil {
			return err
		}
		printAll("Contrast — distributed reachability vs distributed control (Section IX)", rows)
	case "updates":
		r, err := experiments.UpdateLatency(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("== Update latency — cached cluster around one stake update ==\n  %s\n\n", r)
	default:
		return fmt.Errorf("unknown experiment (want one of %v)", names())
	}
	return nil
}
