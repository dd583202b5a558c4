// Command bench is the repository's one canonical benchmark: it boots the
// real stack in one process through the public constructors, drives one of
// four workloads from inputs generated from a seed, checks the outputs and
// prints every metric by name with its unit. README.md in this directory is
// the catalogue; BENCHMARK.json at the repository root is the contract the
// driver reads.
//
//	bash bench/run.sh --workload path --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --out set-a.json
//	bash bench/run.sh compare set-a.json set-b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// watchdogLimit is how long one workload may take before the run dumps its
// goroutines and the metrics gathered so far, and exits 3.
const watchdogLimit = 90 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: path, fanout, churn, attention or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the run measures")
	trace := fs.Int("trace", 0, "0: untraced run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
	out := fs.String("out", "", "append each run's result to this file (input of compare)")
	spanOut := fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.jsonl)")
	quick := fs.Bool("quick", false, "shrink populations and rates (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	var todo []workload
	for _, w := range catalogue() {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	// Everything a run writes stays under .bench_build in the directory it
	// was started from (the checkout root when started through run.sh).
	build, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(build, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	st := newStamp()
	code := 0
	for _, w := range todo {
		base, err := os.MkdirTemp(build, "run-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		rc := runConfig{
			seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick,
			base: base, spanOut: *spanOut, partial: &partialResult{},
		}
		if rc.spanOut == "" {
			rc.spanOut = filepath.Join(build, "spans-"+w.name+".jsonl")
		}
		res, err := runGuarded(w, rc)
		_ = os.RemoveAll(base)
		if err == nil {
			err = res.finalize()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout, st)
		if *out != "" {
			if err := appendRecord(*out, res.record(st)); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runGuarded runs one workload under a watchdog, so that a hang becomes a
// loud failure with the evidence attached rather than a silent timeout.
func runGuarded(w workload, rc runConfig) (*result, error) {
	timer := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: workload %s still running after %v\n", w.name, watchdogLimit)
		rc.partial.dump(os.Stderr)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		_ = os.RemoveAll(rc.base)
		os.Exit(3)
	})
	defer timer.Stop()
	return w.run(rc)
}
