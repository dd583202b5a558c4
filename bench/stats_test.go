package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(append([]float64(nil), vals...), c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// One stall lands in one window: it moves a whole-run p90 but not the
// median of per-window p90s.
func TestWindowedQuantileIgnoresOneStall(t *testing.T) {
	var s []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 100.0
			if w == 2 && i < 60 {
				v = 10_000 // the stall: most of window 2
			}
			s = append(s, sample{time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, v})
		}
	}
	got, n := windowedQuantile(s, time.Second, 5*time.Second, 0.9)
	if got != 100 || n != 500 {
		t.Errorf("windowed p90 = %v over %d samples, want 100 over 500", got, n)
	}
	if whole := quantile(values(s), 0.9); whole != 10_000 {
		t.Errorf("whole-run p90 = %v, want the stall's 10000", whole)
	}
}

func TestWindowsDropShortTailAndKeepShortPhase(t *testing.T) {
	s := []sample{{100 * time.Millisecond, 1}, {1100 * time.Millisecond, 2}, {2100 * time.Millisecond, 3}, {-time.Millisecond, 9}}
	ws, window := windows(s, time.Second, 2500*time.Millisecond)
	if len(ws) != 2 || window != time.Second {
		t.Fatalf("got %d windows of %v, want 2 of 1s (the half-second tail dropped)", len(ws), window)
	}
	if len(ws[0]) != 1 || ws[0][0] != 1 || len(ws[1]) != 1 || ws[1][0] != 2 {
		t.Errorf("windows = %v", ws)
	}
	ws, window = windows(s, time.Second, 400*time.Millisecond)
	if len(ws) != 1 || window != 400*time.Millisecond {
		t.Errorf("a phase shorter than a window: got %d windows of %v, want one of 400ms", len(ws), window)
	}
}

func TestWindowedRate(t *testing.T) {
	var s []sample
	// 3 windows with 10, 50 and 20 units: the median window has 20.
	for w, units := range []int{10, 50, 20} {
		for i := 0; i < units; i++ {
			s = append(s, sample{time.Duration(w)*2*time.Second + time.Duration(i)*time.Millisecond, 1})
		}
	}
	got, n := windowedRate(s, 2*time.Second, 6*time.Second)
	if got != 10 || n != 80 {
		t.Errorf("rate = %v/s over %d samples, want 10/s (20 units in 2 s) over 80", got, n)
	}
}

// spread must match Python's statistics.quantiles(v, n=4), which the driver
// uses: for 1..10 the quartiles are 2.75 and 8.25, the median 5.5.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
	if got, want := spread([]float64{4, 1, 2}), 3.0/2; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}
