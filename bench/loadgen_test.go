package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when an operation takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopKeepsTheSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start.Add(-time.Second)}
	var dues []time.Duration
	var started []time.Duration
	late := openLoop(clk, start, 10*time.Millisecond, start.Add(50*time.Millisecond), nil, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		started = append(started, clk.Now().Sub(start))
		if i == 1 {
			clk.Sleep(25 * time.Millisecond) // operation 1 overruns two slots
		} else {
			clk.Sleep(time.Millisecond)
		}
	})
	wantDue := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	if len(dues) != len(wantDue) {
		t.Fatalf("ran %d operations, want %d: the loop must not skip slots a stall covered", len(dues), len(wantDue))
	}
	for i := range wantDue {
		if dues[i] != wantDue[i] {
			t.Errorf("operation %d due at %v, want %v", i, dues[i], wantDue[i])
		}
	}
	// 0 and 1 start on time; 2 was due at 20ms but starts when 1 returns at
	// 35ms; 3 (due 30ms) starts at 36ms; 4 (due 40ms) is on time again.
	wantStart := []time.Duration{0, 10 * time.Millisecond, 35 * time.Millisecond, 36 * time.Millisecond, 40 * time.Millisecond}
	wantLate := []float64{0, 0, 15_000, 6_000, 0}
	for i := range wantStart {
		if started[i] != wantStart[i] {
			t.Errorf("operation %d started at %v, want %v", i, started[i], wantStart[i])
		}
		if late[i].v != wantLate[i] || late[i].at != wantDue[i] {
			t.Errorf("operation %d: lateness %vus at %v, want %vus at %v", i, late[i].v, late[i].at, wantLate[i], wantDue[i])
		}
	}
}

func TestOpenLoopStops(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	stop := make(chan struct{})
	n := 0
	openLoop(clk, start, time.Millisecond, start.Add(time.Hour), stop, func(i int, due time.Time) {
		n++
		if n == 3 {
			close(stop)
		}
	})
	if n != 3 {
		t.Errorf("ran %d operations after stop closed at 3", n)
	}
}
