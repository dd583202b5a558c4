package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; the
// harness's own catalogue must say the same.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the harness's default is %v", b.RunSeconds, defaultSeconds)
	}
	cat := catalogue()
	if len(b.Workloads) != len(cat) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(cat))
	}
	for i, w := range cat {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalogue %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(b.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, d := range perLayerMetrics {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}
