// Command benchmark is the repository's one benchmark: four named workloads
// driven through the public ccp.Cluster facade for the end-to-end metrics,
// and a traced run in which the benchmark itself calls each layer's
// functions step by step for the per-layer rows. See README.md.
//
//	bash benchmark/run.sh                       every workload, both runs, one report
//	bash benchmark/run.sh --workload xborder --seed 7 --seconds 28 --trace 0
//	bash benchmark/run.sh -quick                ~20 s smoke run of everything
//	bash benchmark/run.sh -selfcheck            same code twice: do the bounds hold?
//
// run.sh builds into .bench_build/ at the repository root and runs the binary;
// `go run -C benchmark .` takes the same flags. With -workload the last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics (the end-to-end metrics with -trace 0, the per-layer
// rows with -trace 1); everything else goes to standard error.
//
// The benchmark is a module of its own (ccp/benchmark, replace ccp => ../):
// inside the ccp/ path prefix it may import ccp/internal/..., and the root
// module's build and tests do not see it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (xborder, local, fanout, update-mix) and print one JSON result line")
		seed         = flag.Int64("seed", 42, "workload seed: graph, pools and operation sequence derive from it")
		seconds      = flag.Int("seconds", defaultSeconds, "time budget of the timed passes; no pass starts after it")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer rows from the traced run")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice on -seed and once on -seed+1; exit 1 if a same-seed pair differs by more than its bound")
		quick        = flag.Bool("quick", false, "smoke mode: 3 passes, a quarter of the queries, no bounds")
		outDir       = flag.String("out", "out", "directory for trace files and the durable sites' data")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	o := runOpts{
		passes: timedPasses, minPasses: minTimedPasses, tracedPasses: tracedPasses, setups: setupBuilds,
		budget: time.Duration(*seconds) * time.Second, outDir: *outDir, log: os.Stderr,
	}
	if *quick {
		o.passes, o.minPasses, o.tracedPasses, o.setups = 3, 3, 2, 2
	}
	ctx := context.Background()

	switch {
	case *selfcheck:
		if !runSelfcheck(ctx, *seed, o, *quick) {
			os.Exit(1)
		}
	case *workloadName != "":
		sp, ok := specByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runOne(ctx, sp, *seed, *trace == 1, o, *quick)
		if err != nil {
			fatal(err)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printResultLine(os.Stdout, res, defs)
	default:
		if !runReport(ctx, *seed, o, *quick) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne generates sp's workload at seed and makes one run of it.
func runOne(ctx context.Context, sp spec, seed int64, traced bool, o runOpts, quick bool) (*result, error) {
	n, traceN := sp.n, sp.traceN
	if quick {
		n, traceN = n/4, traceN/4
	}
	w, err := generate(sp, seed, n)
	if err != nil {
		return nil, err
	}
	if traced {
		return measureLayers(ctx, w.truncated(traceN), o)
	}
	return measureEndToEnd(ctx, w, o)
}

// resultLine is the contract's result object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(out io.Writer, res *result, defs []metricDef) {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", b)
}

// runReport runs every workload untraced and traced and prints every metric
// by name with its unit. It reports whether every run was correct.
func runReport(ctx context.Context, seed int64, o runOpts, quick bool) bool {
	ok := true
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runOne(ctx, sp, seed, traced, o, quick)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			defs, kind := endToEnd, "end-to-end"
			if traced {
				defs, kind = perLayer, "per-layer (traced run)"
			}
			fmt.Printf("\n%s  %s  seed=%d N=%d K=%d updates/pass=%d attempted_ops=%d failed_ops=%d correct=%v\n",
				sp.name, kind, seed, res.N, res.K, res.Updates, res.Attempted, res.Failed, res.Correct)
			for _, d := range defs {
				fmt.Printf("  %-32s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
			}
			ok = ok && res.Correct
		}
	}
	return ok
}

// runSelfcheck runs the end-to-end benchmark twice on seed and once on
// seed+1 and prints, per metric, the two same-seed values, their relative
// difference against the metric's bound, and the other seed's value. It
// reports whether every same-seed pair agrees within its bound (always true
// with quick, which checks no bounds).
func runSelfcheck(ctx context.Context, seed int64, o runOpts, quick bool) bool {
	ok := true
	for _, sp := range specs {
		var runs [3]*result
		for i, s := range []int64{seed, seed, seed + 1} {
			res, err := runOne(ctx, sp, s, false, o, quick)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			runs[i] = res
			ok = ok && res.Correct
		}
		fmt.Printf("\n%s  N=%d K=%d/%d/%d failed_ops=%d/%d/%d\n", sp.name, runs[0].N,
			runs[0].K, runs[1].K, runs[2].K, runs[0].Failed, runs[1].Failed, runs[2].Failed)
		fmt.Printf("  %-26s %14s %14s %8s %7s %14s\n", "metric", fmt.Sprint("seed ", seed), "again", "diff", "bound", fmt.Sprint("seed ", seed+1))
		for _, d := range endToEnd {
			a, b, c := runs[0].Metrics[d.Name], runs[1].Metrics[d.Name], runs[2].Metrics[d.Name]
			diff := relDiff(a, b)
			verdict := ""
			if !quick && diff > d.Bound {
				verdict, ok = "  OVER BOUND", false
			}
			fmt.Printf("  %-26s %14.4f %14.4f %7.2f%% %6.0f%% %14.4f%s\n", d.Name, a, b, 100*diff, 100*d.Bound, c, verdict)
		}
	}
	return ok
}
