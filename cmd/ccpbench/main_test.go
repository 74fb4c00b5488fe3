package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ccp/internal/experiments"
)

func TestNamesAreKnown(t *testing.T) {
	cfg := experiments.Config{Scale: 0.02, Seed: 1, Workers: 1, Repeats: 1,
		PathBudget: 1}
	// Every advertised experiment must dispatch (tiny scale keeps this
	// fast); unknown names must error.
	for _, name := range names() {
		if err := run(name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := run("nope", cfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}

	// Doc drift: every ccpbench command line the docs show — a `go run
	// ./cmd/ccpbench ...` shell line or an inline `ccpbench ...` code span —
	// must name only experiments in names() and flags on the flag set.
	invocation := regexp.MustCompile("go run \\./cmd/ccpbench([^#`\n]*)|`ccpbench ([^`]*)`")
	fs := newFlags(new(experiments.Config))
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range invocation.FindAllStringSubmatch(string(text), -1) {
			args := strings.Fields(m[1] + m[2])
			for i := 0; i < len(args); i++ {
				if strings.HasPrefix(args[i], "-") {
					flagName, _, inline := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
					if fs.Lookup(flagName) == nil {
						t.Errorf("%s: %q uses flag -%s, which ccpbench does not define", doc, m[0], flagName)
					}
					if !inline {
						i++ // every ccpbench flag takes a value
					}
				} else if args[i] != "all" && !slices.Contains(names(), args[i]) {
					t.Errorf("%s: %q names experiment %q, which ccpbench does not have", doc, m[0], args[i])
				}
			}
		}
	}
}
