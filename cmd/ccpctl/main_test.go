package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccp"
)

func TestSaveLoadGraphFormats(t *testing.T) {
	g := ccp.GenerateRandom(50, 100, 3)
	dir := t.TempDir()
	for _, name := range []string{"g.ccpg", "g.csv"} {
		path := filepath.Join(dir, name)
		if err := saveGraph(g, path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		h, err := loadGraph(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if h.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d vs %d", name, h.NumEdges(), g.NumEdges())
		}
	}
	if _, err := loadGraph(filepath.Join(dir, "missing.ccpg")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestOneThresholdAcrossSolvers: companies 1–50 are each 60%-owned by 0 and
// each hold 1% of 51, so 0 commands exactly half of 51 — not control. The
// float sum of fifty 0.01 stakes lands a hair above 0.5, so a solver that
// compares against bare 0.5 instead of the shared threshold answers true.
func TestOneThresholdAcrossSolvers(t *testing.T) {
	g := ccp.NewGraph(52)
	for c := ccp.NodeID(1); c <= 50; c++ {
		if err := g.AddEdge(0, c, 0.6); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(c, 51, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	gpath := filepath.Join(t.TempDir(), "half.ccpg")
	if err := saveGraph(g, gpath); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := cmdDatalog([]string{"-in", gpath, "-s", "0", "-t", "51"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.HasPrefix(out, "control(0,51) = false") {
		t.Fatalf("datalog: %q", out)
	}
	for _, solver := range []string{"cbe", "reduce", "datalog"} {
		out := captureStdout(t, func() {
			if err := cmdQuery([]string{"-in", gpath, "-s", "0", "-t", "51", "-solver", solver}); err != nil {
				t.Fatal(err)
			}
		})
		if !strings.HasPrefix(out, "q_c(0,51) = false") {
			t.Fatalf("query -solver %s: %q", solver, out)
		}
	}
}

// TestDatalogDeadSource: a company the graph does not have is refused, as
// by every other command, and a program cannot assert ownership facts over
// the graph it runs on.
func TestDatalogDeadSource(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.csv")
	if err := os.WriteFile(gpath, []byte("0,1,0.6\n1,2,0.7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		err := cmdDatalog([]string{"-in", gpath, "-s", "7"})
		if err == nil || !strings.Contains(err.Error(), "-s 7: no such company") {
			t.Fatalf("datalog -s 7: err = %v", err)
		}
	})
	if out != "" {
		t.Fatalf("datalog -s 7 answered: %q", out)
	}
	prog := filepath.Join(dir, "p.dl")
	if err := os.WriteFile(prog, []byte("control(x, x) :- source(x).\nown(0, 2) @ 0.9.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdDatalog([]string{"-in", gpath, "-s", "0", "-program", prog})
	if err == nil || !strings.Contains(err.Error(), "own is a read-only view") {
		t.Fatalf("own fact in -program: err = %v", err)
	}
}

// TestCommandsRejectUnknownCompany: every command that takes -s or -t
// refuses an id that is not a live company of the loaded graph — past its
// end, removed from it, or wrapping to a live id — and prints no answer.
func TestCommandsRejectUnknownCompany(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.ccpg")
	if err := cmdGen([]string{"-type", "scalefree", "-nodes", "200", "-out", gpath}); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if !g.RemoveNode(7) {
		t.Fatal("company 7 not removed")
	}
	if err := saveGraph(g, gpath); err != nil {
		t.Fatal(err)
	}
	cmds := map[string]func([]string) error{
		"query": cmdQuery, "owned": cmdOwned, "explain": cmdExplain, "datalog": cmdDatalog,
	}
	type tc struct {
		cmd  string
		args []string
		bad  string // the flag and id the error must name
	}
	cases := []tc{
		{"owned", []string{"-s", "200"}, "-s 200"},
		{"owned", []string{"-s", "7"}, "-s 7"},
		{"explain", []string{"-s", "200", "-t", "0"}, "-s 200"},
		{"explain", []string{"-s", "0", "-t", "7"}, "-t 7"},
		{"datalog", []string{"-s", "5000", "-t", "5000"}, "-s 5000"},
		{"datalog", []string{"-s", "0", "-t", "5000"}, "-t 5000"},
		{"datalog", []string{"-s", "7"}, "-s 7"},
	}
	for _, solver := range []string{"cbe", "reduce", "datalog", "dist"} {
		cases = append(cases,
			tc{"query", []string{"-solver", solver, "-s", "5000", "-t", "5000"}, "-s 5000"},
			tc{"query", []string{"-solver", solver, "-s", "0", "-t", "7"}, "-t 7"},
			tc{"query", []string{"-solver", solver, "-s", "4294967296", "-t", "1"}, "-s 4294967296"},
		)
	}
	for _, c := range cases {
		args := append([]string{"-in", gpath}, c.args...)
		out := captureStdout(t, func() {
			err := cmds[c.cmd](args)
			if err == nil || !strings.Contains(err.Error(), c.bad+": no such company") {
				t.Errorf("%s %v: err = %v, want one naming %s", c.cmd, c.args, err, c.bad)
			}
		})
		if out != "" {
			t.Errorf("%s %v answered: %q", c.cmd, c.args, out)
		}
	}
}

func TestCommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.ccpg")
	if err := cmdGen([]string{"-type", "scalefree", "-nodes", "500", "-degree", "2", "-out", gpath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gpath); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", gpath},
		{"-in", gpath, "-v"},
	} {
		if err := cmdStats(args); err != nil {
			t.Fatalf("stats %v: %v", args, err)
		}
	}
	for _, solver := range []string{"cbe", "reduce", "datalog"} {
		if err := cmdQuery([]string{"-in", gpath, "-s", "0", "-t", "7", "-solver", solver}); err != nil {
			t.Fatalf("query %s: %v", solver, err)
		}
	}
	if err := cmdOwned([]string{"-in", gpath, "-s", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExplain([]string{"-in", gpath, "-s", "0", "-t", "7"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGroups([]string{"-in", gpath, "-top", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDatalog([]string{"-in", gpath, "-s", "0"}); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "part")
	if err := cmdSplit([]string{"-in", gpath, "-parts", "2", "-outprefix", prefix}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(prefix + string('0'+byte(i)) + ".ccpp"); err != nil {
			t.Fatal(err)
		}
	}
	// Error paths.
	if err := cmdGen([]string{"-type", "zap", "-out", gpath}); err == nil {
		t.Fatal("bad type accepted")
	}
	if err := cmdQuery([]string{"-in", gpath, "-s", "0", "-t", "1", "-solver", "zap"}); err == nil {
		t.Fatal("bad solver accepted")
	}
	if err := cmdQuery([]string{"-in", gpath, "-s", "0", "-t", "1", "-solver", "pathenum"}); err == nil {
		t.Fatal("path enumeration is an experiments comparator, not a query solver")
	}
	if err := cmdStats([]string{}); err == nil {
		t.Fatal("missing -in accepted")
	}
}
