package main

import (
	"math"
	"sort"
	"time"
)

// sample is one measurement taken at an offset from the start of its
// phase. Offsets, not wall times, so windows line up with the phase.
type sample struct {
	at time.Duration
	v  float64
}

// series collects the samples of one generator goroutine. Each goroutine
// owns its series; they are merged once the goroutines have stopped.
type series struct {
	samples []sample
}

func (s *series) add(at time.Duration, v float64) {
	s.samples = append(s.samples, sample{at, v})
}

func merge(parts ...*series) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p.samples...)
	}
	return out
}

func values(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (the same rule numpy's default uses). vals is sorted in
// place. An empty input gives 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0]
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// windows splits samples taken in [0, total) into consecutive windows of
// the given length and returns them with the window length used. The last
// window is kept only if it is complete, so a short tail cannot stand for a
// whole window; a phase shorter than one window is a single window of its
// own length.
func windows(samples []sample, window, total time.Duration) ([][]float64, time.Duration) {
	n := int(total / window)
	if n < 1 {
		n, window = 1, total
	}
	out := make([][]float64, n)
	for _, s := range samples {
		if s.at < 0 {
			continue
		}
		if i := int(s.at / window); i < n {
			out[i] = append(out[i], s.v)
		}
	}
	return out, window
}

// windowedQuantile is the median over windows of the per-window
// q-quantile. One scheduler stall on a shared box lands in one window and
// moves one per-window value; it cannot move the median of them the way it
// moves a whole-run tail percentile. Windows without samples are skipped.
// It also returns the number of samples used.
func windowedQuantile(samples []sample, window, total time.Duration, q float64) (float64, int) {
	ws, _ := windows(samples, window, total)
	var per []float64
	used := 0
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		used += len(w)
		per = append(per, quantile(w, q))
	}
	return median(per), used
}

// windowedRate is the median over windows of (sum of sample values in the
// window) per second. Samples carry counts (events acked, deliveries made).
func windowedRate(samples []sample, window, total time.Duration) (float64, int) {
	ws, window := windows(samples, window, total)
	var per []float64
	used := 0
	for _, w := range ws {
		var sum float64
		for _, v := range w {
			sum += v
		}
		used += len(w)
		per = append(per, sum/window.Seconds())
	}
	return median(per), used
}
