package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		// Request r1: a 10ms publish with two overlapping applies covering
		// 2..6 and 4..9 (union 7ms), so 3ms of self time.
		{Name: "publish", Layer: "reefcluster", Start: ms(0), End: ms(10), ID: "r1"},
		{Name: "apply@n0", Layer: "reef", Start: ms(2), End: ms(6), Parent: "publish", ID: "r1"},
		{Name: "apply@n1", Layer: "reef", Start: ms(4), End: ms(9), Parent: "publish", ID: "r1"},
		// Request r2: a child that sticks out of its parent is clipped to it.
		{Name: "publish", Layer: "reefcluster", Start: ms(20), End: ms(24), ID: "r2"},
		{Name: "apply@n0", Layer: "reef", Start: ms(22), End: ms(30), Parent: "publish", ID: "r2"},
		// A span of another request with the same names changes nothing above.
		{Name: "lease@n0", Layer: "delivery", Start: ms(1), End: ms(2), ID: "r3"},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"reefcluster": 3*time.Millisecond + 2*time.Millisecond,
		"reef":        4*time.Millisecond + 5*time.Millisecond + 8*time.Millisecond,
		"delivery":    time.Millisecond,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{6, 8}, {2, 7}}, 0, 10, 6},   // unsorted, overlapping
		{[][2]int64{{-5, 3}, {9, 20}}, 0, 10, 4}, // clipped on both sides
		{[][2]int64{{1, 9}, {2, 3}}, 0, 10, 8},   // nested
	}
	for _, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestSegmentRates(t *testing.T) {
	// 4 s planned, segments of 1 s: off, on, off, on. 10/s while off, 8/s on.
	var s []sample
	for seg, perSec := range []int{10, 8, 10, 8} {
		for i := 0; i < perSec; i++ {
			s = append(s, sample{time.Duration(seg)*time.Second + time.Duration(i)*time.Millisecond, 1})
		}
	}
	off, on := segmentRates(s, 4*time.Second, 4*time.Second)
	if off != 10 || on != 8 {
		t.Errorf("rates off=%v on=%v, want 10 and 8", off, on)
	}
	if got := overheadPct(off, on); !near(got, 20) {
		t.Errorf("overhead = %v%%, want 20%%", got)
	}
}
