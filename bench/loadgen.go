package main

import (
	"time"
)

// clock is the scheduler's time source; tests drive a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop runs op on a fixed schedule: operation i is due at
// start + i*interval, whether or not earlier operations have returned in
// time. op runs on the caller's goroutine, the way one client with a
// schedule behaves: when a call overruns its slot the following operations
// start late, and because op measures its latency from the due time it is
// handed, the wait a stall imposes on later operations is counted rather
// than hidden (no coordinated omission). The loop ends at the first slot due
// at or after until, or when stop closes. It returns how late each
// operation started, in microseconds, at the operation's due offset.
func openLoop(clk clock, start time.Time, interval time.Duration, until time.Time, stop <-chan struct{}, op func(i int, due time.Time)) []sample {
	var late []sample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return late
		}
		select {
		case <-stop:
			return late
		default:
		}
		now := clk.Now()
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		lateness := now.Sub(due)
		if lateness < 0 {
			lateness = 0
		}
		late = append(late, sample{due.Sub(start), micros(lateness)})
		op(i, due)
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
