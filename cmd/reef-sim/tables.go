package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"reef/internal/experiments"
)

// tableIDs are the IDs the verb accepts; f1 and f2 name one shared table.
const tableIDs = "e1 e2 e3 f1 f2 a1 a2 a3"

// runTables is the `reef-sim tables` verb: it regenerates the tables of
// the paper's evaluation (DESIGN.md §4) from internal/experiments, all
// of them or the ones named, and returns the process exit code.
func runTables(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reef-sim tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reef-sim tables [-quick] [-seed N] [%s]\n", tableIDs)
		fs.PrintDefaults()
	}
	quick := fs.Bool("quick", false, "run at reduced scale for a fast smoke test")
	seed := fs.Int64("seed", 2006, "random seed for all experiments")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	e1opt := experiments.E1Options{Seed: *seed}
	e3opt := experiments.E3Options{Seed: *seed}
	fopt := experiments.FOptions{Seed: *seed}
	a2opt := experiments.A2Options{Seed: *seed}
	a3opt := experiments.A3Options{Seed: *seed}
	if *quick {
		e1opt.Users, e1opt.Days, e1opt.Scale = 3, 10, 0.15
		e3opt.Stories, e3opt.AttendedPages, e3opt.Trials = 200, 1500, 2
		e3opt.TermCounts = []int{5, 30, 200}
		fopt.UserCounts, fopt.Days, fopt.Scale = []int{3, 6}, 5, 0.1
		a2opt.Leaves, a2opt.Events = 8, 100
		a3opt.Users, a3opt.Days, a3opt.Scale = 2, 4, 0.1
	}
	suite := []struct {
		id  string
		run func() experiments.Result
	}{
		{"e1", func() experiments.Result { return experiments.E1TopicDiscovery(e1opt) }},
		{"e2", func() experiments.Result { return experiments.E2RecommendationRate(e1opt) }},
		{"e3", func() experiments.Result { return experiments.E3PrecisionSweep(e3opt) }},
		{"f1", func() experiments.Result { return experiments.F1F2Comparison(fopt) }},
		{"a1", func() experiments.Result { return experiments.A1TermSelection(e3opt) }},
		{"a2", func() experiments.Result { return experiments.A2Covering(a2opt) }},
		{"a3", func() experiments.Result { return experiments.A3AdFilter(a3opt) }},
	}

	wanted := map[string]bool{}
	for _, arg := range fs.Args() {
		// Parse stops at the first ID, so a flag after it would
		// otherwise be read as one.
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(stderr, "reef-sim tables: flag %q must come before the experiment IDs\n", arg)
			return 2
		}
		id := strings.ToLower(arg)
		if !slices.Contains(strings.Fields(tableIDs), id) {
			fmt.Fprintf(stderr, "reef-sim tables: unknown experiment %q (valid: %s)\n", arg, tableIDs)
			return 2
		}
		if id == "f2" {
			id = "f1"
		}
		wanted[id] = true
	}
	for _, e := range suite {
		if len(wanted) > 0 && !wanted[e.id] {
			continue
		}
		start := time.Now()
		res := e.run()
		fmt.Fprintln(stdout, res.Table.String())
		fmt.Fprintf(stdout, "[%s finished in %.1fs]\n\n", strings.ToUpper(e.id), time.Since(start).Seconds())
	}
	return 0
}
