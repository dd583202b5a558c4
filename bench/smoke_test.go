package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

// Every workload, shrunk, for about half a second, untraced and traced: each mode
// must measure every metric it promises, with the catalogue's unit, and no
// operation may fail.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four stacks twice")
	}
	for _, traced := range []bool{false, true} {
		for _, w := range catalogue() {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				base := t.TempDir()
				rc := runConfig{
					seed: 1, seconds: 0.6, traced: traced, quick: true, base: base,
					spanOut: base + "/spans.jsonl", partial: &partialResult{},
				}
				res, err := w.run(rc)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.finalize(); err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Errorf("failed=%d correct=%v: %v", res.Failed, res.Correct, res.failures)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				for _, d := range reportedNames(traced) {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s is missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
				if len(res.Metrics) != len(reportedNames(traced)) {
					t.Errorf("%d metrics reported, want exactly %d", len(res.Metrics), len(reportedNames(traced)))
				}
				if traced {
					checkSpanFile(t, rc.spanOut)
				}
			})
		}
	}
}

// checkSpanFile reads the spans a traced run wrote. The control client's
// subscribe spans and the nodes' must pair up by id: a few may miss their
// partner where tracing was switched between the two ends of one call, not
// most of them.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	client := make(map[string]bool)
	node := make(map[string]bool)
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file line %d: %v", lines+1, err)
		}
		lines++
		switch {
		case s.Name == "subscribe":
			client[s.ID] = true
		case s.Parent == "subscribe":
			node[s.ID] = true
		}
	}
	if lines == 0 {
		t.Fatal("span file is empty")
	}
	paired := 0
	for id := range client {
		if node[id] {
			paired++
		}
	}
	if len(client) == 0 || paired*10 < len(client)*9 {
		t.Errorf("%d of %d client subscribe spans have a node span of the same id", paired, len(client))
	}
}
