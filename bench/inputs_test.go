package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"reef"
	"reef/internal/routing"
)

// digest hashes everything a plan hands to the system under test.
func (p *plan) digest() [sha256.Size]byte {
	h := sha256.New()
	writeSubs := func(subs []subSpec) {
		for _, s := range subs {
			fmt.Fprintf(h, "%s\x00%d\n", s.User, s.Feed)
		}
	}
	fmt.Fprintln(h, p.ControlFeed)
	for _, f := range p.Feeds {
		fmt.Fprintln(h, f)
	}
	writeSubs(p.Probes)
	writeSubs(p.Static)
	writeSubs(p.Churn)
	_ = binary.Write(h, binary.BigEndian, p.EventFeeds)
	h.Write(p.Filler)
	return sumOf(h)
}

func sumOf(h hash.Hash) (out [sha256.Size]byte) {
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSamePlan(t *testing.T) {
	for _, w := range []*psWorkload{pathWorkload(), fanoutWorkload(), churnWorkload()} {
		a, b := genPlan(7, w.plan).digest(), genPlan(7, w.plan).digest()
		if a != b {
			t.Errorf("%s: the same seed gave two different plans", w.name)
		}
		if c := genPlan(8, w.plan).digest(); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	sp := fanoutWorkload().plan
	p := genPlan(3, sp)
	if len(p.Static) != sp.Users*sp.SubsPerUser {
		t.Errorf("%d static subscriptions, want %d", len(p.Static), sp.Users*sp.SubsPerUser)
	}
	if len(p.Probes) != sp.Probes || len(p.Churn) != sp.ChurnUsers {
		t.Errorf("%d probes and %d churn users, want %d and %d", len(p.Probes), len(p.Churn), sp.Probes, sp.ChurnUsers)
	}
	total := 0
	for _, n := range p.FanOut {
		total += n
	}
	if total != len(p.Static)+len(p.Probes) {
		t.Errorf("fan-out table sums to %d, want %d", total, len(p.Static)+len(p.Probes))
	}
	// Every node of the path cluster serves one probe.
	pp := genPlan(3, pathWorkload().plan)
	seen := map[int]bool{}
	for _, pr := range pp.Probes {
		seen[routing.UserSlot(pr.User, 3)] = true
	}
	if len(seen) != 3 {
		t.Errorf("path probes sit on %d of 3 nodes", len(seen))
	}
}

func TestEventSourceIsDeterministicAndNumbersEvents(t *testing.T) {
	p := genPlan(5, churnWorkload().plan)
	digest := func() [sha256.Size]byte {
		h := sha256.New()
		due := time.Unix(0, 0)
		for pub := 0; pub < 2; pub++ {
			src := newEventSource(p, tagClosed, pub, 2, true)
			batch := make([]reef.Event, 16)
			for i := 0; i < 8; i++ {
				lo, hi := src.fill(batch, due)
				fmt.Fprintf(h, "%d %d\n", lo, hi)
				for _, ev := range batch {
					h.Write([]byte(ev.Attrs["feed"]))
					h.Write(ev.Payload)
				}
			}
		}
		return sumOf(h)
	}
	if digest() != digest() {
		t.Error("the same plan gave two different event streams")
	}
	src := newEventSource(p, tagOpen, 0, 1, false)
	batch := make([]reef.Event, 4)
	perFeed := map[string]uint64{}
	for i := 0; i < 50; i++ {
		src.fill(batch, time.Unix(0, 0))
		for j, ev := range batch {
			h, ok := readHeader(ev.Payload)
			if !ok || h.tag != tagOpen || h.seq != uint64(i*4+j) {
				t.Fatalf("event %d of batch %d: header %+v ok=%v", j, i, h, ok)
			}
			if h.feedSeq != perFeed[ev.Attrs["feed"]] {
				t.Fatalf("feed %s: got number %d, want %d", ev.Attrs["feed"], h.feedSeq, perFeed[ev.Attrs["feed"]])
			}
			perFeed[ev.Attrs["feed"]]++
		}
	}
}

func TestSameSeedSameClicks(t *testing.T) {
	sp := attentionParams()
	sp.Users, sp.WebScale = 5, 0.05
	digest := func(seed int64) (sum [sha256.Size]byte, total int) {
		in := genAttention(seed, sp, 2)
		h := sha256.New()
		for _, day := range in.days {
			for _, b := range day {
				for _, c := range b {
					fmt.Fprintf(h, "%s %s %d %s\n", c.User, c.URL, c.At.UnixNano(), c.Referrer)
				}
			}
		}
		return sumOf(h), in.total
	}
	a, n := digest(11)
	b, _ := digest(11)
	c, _ := digest(12)
	if n == 0 {
		t.Fatal("no clicks generated")
	}
	if a != b {
		t.Error("the same seed gave two different click histories")
	}
	if a == c {
		t.Error("seeds 11 and 12 gave the same click history")
	}
}
