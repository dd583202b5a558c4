package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runsOf writes one record per value: untraced runs of one workload that
// differ in one metric.
func runsOf(t *testing.T, path, workload, metric string, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		rec := record{
			Workload: workload, Seed: int64(i), Correct: true, Attempted: 10,
			Metrics: map[string]metricValue{metric: {Value: v, Unit: "us"}},
		}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	// e2e_p50_us: lower is better, bound 25%.
	runsOf(t, a, "path", "e2e_p50_us", 100, 101, 99, 100, 102)
	runsOf(t, b, "path", "e2e_p50_us", 140, 141, 139, 140, 142) // 40% worse
	// throughput_per_s: higher is better; 10% lower is within the bound.
	runsOf(t, a, "fanout", "throughput_per_s", 1000, 1010, 990, 1000, 1005)
	runsOf(t, b, "fanout", "throughput_per_s", 900, 905, 895, 900, 910)
	// setup_s: 70% worse, but by less than the metric's floor of 0.5 s.
	runsOf(t, a, "attention", "setup_s", 0.070, 0.071, 0.069, 0.070, 0.072)
	runsOf(t, b, "attention", "setup_s", 0.120, 0.121, 0.119, 0.120, 0.122)
	// control_p50_us: same median, but set B does not repeat within the bound.
	runsOf(t, a, "churn", "control_p50_us", 100, 101, 99, 100, 102)
	runsOf(t, b, "churn", "control_p50_us", 60, 100, 100, 150, 160)
	var out bytes.Buffer
	code := compareMain([]string{a, b}, &out)
	if code != 1 {
		t.Errorf("exit code %d, want 1 (there is a regression)", code)
	}
	want := map[string]string{"path": "REGRESSION", "fanout": "ok", "churn": "unresolved", "attention": "ok"}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if v, ok := want[f[0]]; ok {
			if f[len(f)-1] != v {
				t.Errorf("%s: verdict %q, want %q\n%s", f[0], f[len(f)-1], v, line)
			}
			delete(want, f[0])
		}
	}
	if len(want) != 0 {
		t.Errorf("no line for %v in:\n%s", want, out.String())
	}

	// Without the regression the exit code is 0, unresolved or not.
	if err := os.Remove(b); err != nil {
		t.Fatal(err)
	}
	runsOf(t, b, "path", "e2e_p50_us", 100, 101, 99, 100, 102)
	runsOf(t, b, "churn", "control_p50_us", 60, 100, 100, 150, 160)
	out.Reset()
	if code := compareMain([]string{a, b}, &out); code != 0 {
		t.Errorf("exit code %d, want 0:\n%s", code, out.String())
	}
}

func TestCompareFailsOnFailedOperations(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	runsOf(t, a, "path", "e2e_p50_us", 100, 100)
	if err := appendRecord(b, record{Workload: "path", Failed: 3, Attempted: 10,
		Metrics: map[string]metricValue{"e2e_p50_us": {Value: 100, Unit: "us"}}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareMain([]string{a, b}, &out); code != 1 {
		t.Errorf("exit code %d, want 1 (set B has failed operations)", code)
	}
}
