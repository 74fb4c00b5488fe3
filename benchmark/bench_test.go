package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestTinyRunOfEveryTransport drives both runs end to end on a graph small
// enough for go test: every transport builds, answers correctly, restores its
// state, reports every metric and tears down.
func TestTinyRunOfEveryTransport(t *testing.T) {
	o := runOpts{passes: 2, minPasses: 2, tracedPasses: 1, setups: 2, budget: time.Minute,
		outDir: t.TempDir(), log: io.Discard}
	for _, sp := range []spec{
		{name: "tiny-inproc", deploy: inProcess, pool: crossBorder, liveSites: 2},
		{name: "tiny-uniform", deploy: inProcess, pool: uniform, liveSites: 1},
		{name: "tiny-tcp", deploy: loopback, pool: crossBorder, liveSites: 2},
		{name: "tiny-durable", deploy: durableTCP, pool: crossBorder, liveSites: 2, updateEvery: 4},
	} {
		sp.countries, sp.nodesPerCountry, sp.outDegree, sp.interconnect = 3, 300, 3, 0.05
		w, err := generate(sp, 42, 16)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		res, err := measureEndToEnd(context.Background(), w, o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.K != 2 || res.Attempted != 2+4*len(w.ops) {
			t.Errorf("%s: correct=%v failed=%d K=%d attempted=%d", sp.name, res.Correct, res.Failed, res.K, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", sp.name, d.Name, v)
			}
		}
		layers, err := measureLayers(context.Background(), w.truncated(8), o)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if layers.Failed != 0 {
			t.Errorf("%s traced: %d failed operations", sp.name, layers.Failed)
		}
		for _, d := range perLayer {
			if v, ok := layers.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer row %s = %v (present %v)", sp.name, d.Name, v, ok)
			}
		}
		if len(layers.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run reports %d rows, spec lists %d", sp.name, len(layers.Metrics), len(perLayer))
		}
		if got := layers.Metrics["site.visits_per_query"]; got != 3 {
			t.Errorf("%s: site.visits_per_query = %v, want 3", sp.name, got)
		}
		if sp.updateEvery > 0 && layers.Metrics["store.wal_bytes_per_update"] == 0 {
			t.Errorf("%s: updates wrote no WAL bytes", sp.name)
		}
	}
	if left, _ := os.ReadDir(o.outDir); len(left) != 4 {
		t.Errorf("out dir holds %d entries after teardown, want the 4 trace files", len(left))
	}
}

// TestManifestMatchesSpec keeps BENCHMARK.json and the program in step.
func TestManifestMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var mf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if strings.Join(mf.Command, " ") != "bash benchmark/run.sh" || strings.Join(mf.Paths, " ") != "benchmark" {
		t.Errorf("command %q in paths %q: run.sh and this directory are the benchmark", mf.Command, mf.Paths)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("manifest lists %d workloads, spec %d", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q / spec %q (or their why differs)", i, w.Name, specs[i].name)
		}
		if n := specs[i].liveSites; n != 1 && n != 2 {
			t.Errorf("workload %s: liveSites = %d, the reference kernel runs on 1 or 2 goroutines", w.Name, n)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, spec %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, spec %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound differs from spec (%v)", kind, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
}
