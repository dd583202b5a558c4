package main

import "testing"

// A feed whose last event never arrived shows no gap to the sequence check;
// the count the generator handed out must catch it.
func TestCheckTailsSeesALostTail(t *testing.T) {
	key := [2]byte{tagOpen, 0}
	pr := &probe{spec: subSpec{User: "u", Feed: 3}, expect: map[[2]byte]uint64{key: 9}}
	r := &psRun{probes: []*probe{pr}, sent: map[int]map[[2]byte]uint64{3: {key: 10}}}
	r.checkTails()
	if r.fail.n != 1 {
		t.Errorf("9 of 10 events received: %d failures, want 1", r.fail.n)
	}
	pr.expect[key] = 10
	r.fail = failures{}
	r.checkTails()
	if r.fail.n != 0 {
		t.Errorf("10 of 10 events received: %d failures, want 0 (%v)", r.fail.n, r.fail.first)
	}
}
