package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricValue is one reported number. Only value and unit go into the
// result line the driver reads; the sample count is for people.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"-"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	traced   bool
	seed     int64
	seconds  float64
	failures []string
	// extra holds measurements outside the mode's contract; they are
	// printed for people and left out of the result line.
	extra map[string]metricValue
	mu    sync.Mutex
}

func newResult(workload string, rc runConfig) *result {
	return &result{Workload: workload, Metrics: make(map[string]metricValue), traced: rc.traced, seed: rc.seed, seconds: rc.seconds}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.mu.Lock()
	r.Metrics[name] = metricValue{v, unit, samples}
	r.mu.Unlock()
}

func (r *result) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.Metrics[name]
	return ok
}

// record is what -out appends per run: the result line plus what is needed
// to compare sets of runs.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Stamp     stamp                  `json:"stamp"`
}

// stamp says where and on what a run was made.
type stamp struct {
	Revision   string `json:"revision"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LoadAvg    string `json:"loadavg_at_start"`
	Time       string `json:"time"`
}

func newStamp() stamp {
	s := stamp{
		Revision: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Revision = kv.Value
			}
		}
	}
	if rev := os.Getenv("BENCH_REVISION"); rev != "" {
		s.Revision = rev
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		s.LoadAvg = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	return s
}

// reportedNames is the metric list a run must print: the end-to-end ones on
// an untraced run, the per-layer ones on a traced run.
func reportedNames(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// finalize checks that every metric the mode promises is there, moves the
// rest (what an untraced run measured on the side, such as the p90s) to
// extra, and settles correctness.
func (r *result) finalize() error {
	var missing []string
	keep := make(map[string]metricValue)
	for _, d := range reportedNames(r.traced) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		keep[d.Name] = m
		delete(r.Metrics, d.Name)
	}
	r.extra, r.Metrics = r.Metrics, keep
	r.Correct = r.Failed == 0 && len(missing) == 0
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// print writes the table people read, then the one JSON line the driver
// reads, last.
func (r *result) print(w io.Writer, st stamp) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v\n", r.Workload, r.seed, r.seconds, r.traced)
	fmt.Fprintf(w, "# revision=%s %s nproc=%d GOMAXPROCS=%d loadavg=%s\n", st.Revision, st.GoVersion, st.NumCPU, st.GOMAXPROCS, st.LoadAvg)
	printSorted(w, r.Metrics)
	if len(r.extra) > 0 {
		fmt.Fprintln(w, "# also measured, not part of this mode's result line:")
		printSorted(w, r.extra)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

func printSorted(w io.Writer, set map[string]metricValue) {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := set[name]
		fmt.Fprintf(w, "%-40s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
}

// record keeps everything the run measured, the extras too.
func (r *result) record(st stamp) record {
	all := make(map[string]metricValue, len(r.Metrics)+len(r.extra))
	for _, set := range []map[string]metricValue{r.Metrics, r.extra} {
		for name, m := range set {
			all[name] = m
		}
	}
	return record{r.Workload, r.seed, r.seconds, r.traced, r.Correct, r.Attempted, r.Failed, all, st}
}

// appendRecord appends one JSON line to the -out file.
func appendRecord(path string, rec record) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(rec)
}

// partialResult lets the watchdog print what a hung run had gathered.
type partialResult struct {
	mu  sync.Mutex
	res *result
	run *psRun
}

func (p *partialResult) attach(res *result, run *psRun) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.res, p.run = res, run
	p.mu.Unlock()
}

func (p *partialResult) dump(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.res == nil {
		fmt.Fprintln(w, "watchdog: no metrics gathered yet (still setting up)")
		return
	}
	p.res.mu.Lock()
	for name, m := range p.res.Metrics {
		fmt.Fprintf(w, "watchdog: %s = %g %s\n", name, m.Value, m.Unit)
	}
	p.res.mu.Unlock()
	if p.run != nil {
		for _, pr := range p.run.probes {
			fmt.Fprintf(w, "watchdog: probe %s published=%d received=%d acked=%d\n",
				pr.spec.User, pr.published.Load(), pr.received.Load(), pr.acked.Load())
		}
		fmt.Fprintf(w, "watchdog: attempted=%d failed=%d\n", p.run.attempted.Load(), p.run.fail.n)
	}
}

// stopwatch logs how long each step of a run took, to standard error.
type stopwatch struct{ last time.Time }

func newStopwatch() *stopwatch { return &stopwatch{time.Now()} }

func (s *stopwatch) lap(step string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "# %-14s %7.2fs\n", step, now.Sub(s.last).Seconds())
	s.last = now
}
