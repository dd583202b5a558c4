package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare reads two files written with -out (one JSON record per run) and
// prints, per workload and end-to-end metric, both medians, the change and
// the bound. A metric is a regression when the second set's median is worse
// than the first's by more than the bound (or, where the metric has one, by
// more than its absolute floor, whichever is more); it is unresolved when it
// is not, but either set's own spread (interquartile range over median, the
// driver's measure) is wider than that, so "no change" cannot be claimed. compare exits 1 on a regression or a failed operation, 0
// otherwise.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (the exclusive method). Fewer than two values have no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	q := func(i int) float64 {
		pos := float64(i) * float64(len(v)+1) / 4
		j := int(pos)
		if j < 1 {
			return v[0]
		}
		if j >= len(v) {
			return v[len(v)-1]
		}
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

type setStats struct {
	vals   map[string]map[string][]float64 // workload -> metric -> values of untraced runs
	failed int64
	runs   int
}

func collect(recs []record) setStats {
	s := setStats{vals: make(map[string]map[string][]float64)}
	for _, r := range recs {
		s.failed += r.Failed
		if r.Traced {
			continue
		}
		s.runs++
		if s.vals[r.Workload] == nil {
			s.vals[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			s.vals[r.Workload][name] = append(s.vals[r.Workload][name], m.Value)
		}
	}
	return s
}

func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sets [2]setStats
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
		sets[i] = collect(recs)
	}
	return compareSets(sets[0], sets[1], w)
}

func compareSets(a, b setStats, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %9s %7s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "A spread", "B spread", "verdict")
	for _, wl := range catalogue() {
		for _, d := range endToEndMetrics {
			va, vb := a.vals[wl.name][d.Name], b.vals[wl.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			// worse is how much worse B is than A, in the metric's unit;
			// allowed is the bound as a share of A's median, or the
			// metric's floor where that is more.
			worse := mb - ma
			if d.Better == "higher" {
				worse = -worse
			}
			allowed := max(d.Bound*ma, d.Floor)
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > allowed:
				verdict = "REGRESSION"
				code = 1
			case sa*ma > allowed || sb*mb > allowed:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-10s %-18s %14.3f %14.3f %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, d.Name, ma, mb, 100*(mb-ma)/ma, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if a.failed+b.failed > 0 {
		fmt.Fprintf(w, "failed operations: A %d, B %d\n", a.failed, b.failed)
		code = 1
	}
	fmt.Fprintf(w, "runs: A %d, B %d (untraced)\n", a.runs, b.runs)
	return code
}
