package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"reef"
	"reef/internal/routing"
)

// The system under test only ever sees inputs generated here from the
// seed: user names, feed URLs, the subscription table, the feed every
// event goes to and the payload bytes. The same seed gives the same plan,
// byte for byte (inputs_test.go pins that).

// Payload header: one tag byte naming the phase the event belongs to, the
// publisher that sent it, the event's number among that publisher's events
// of the phase, and its number on its feed. Consumers check the per-feed
// number for gaps, duplicates and reordering; the traced run joins
// timestamps taken at different layers on the phase number.
const (
	headerLen = 18

	tagFirst  = 'S' // a probe's first operation, part of the set-up
	tagWarm   = 'W'
	tagOpen   = 'A' // phase A, open loop
	tagClosed = 'B' // phase B, closed loop
	tagEnd    = 'E' // the event that wakes a consumer when the phases are over
)

type header struct {
	tag, pub     byte
	seq, feedSeq uint64
}

func putHeader(p []byte, h header) {
	p[0], p[1] = h.tag, h.pub
	binary.BigEndian.PutUint64(p[2:10], h.seq)
	binary.BigEndian.PutUint64(p[10:18], h.feedSeq)
}

func readHeader(p []byte) (header, bool) {
	if len(p) < headerLen {
		return header{}, false
	}
	return header{p[0], p[1], binary.BigEndian.Uint64(p[2:10]), binary.BigEndian.Uint64(p[10:18])}, true
}

// subSpec is one subscription the set-up places.
type subSpec struct {
	User string
	Feed int // index into plan.Feeds
}

// plan is the generated input of one pub-sub run.
type plan struct {
	Feeds []string
	// Probes are the at-least-once consumers that measure end-to-end
	// latency and check ordering; each reads one feed.
	Probes []subSpec
	// Static are the best-effort subscriptions that make the fan-out.
	Static []subSpec
	// Churn is the control-plane population: the control loop unsubscribes
	// and resubscribes these round-robin.
	Churn []subSpec
	// EventFeeds is the ring events take their feed from.
	EventFeeds []int32
	// Filler is the payload body after the header.
	Filler []byte
	// ControlFeed is what Churn users with Feed == -1 subscribe to; nothing
	// is published to it.
	ControlFeed string
	// FanOut[i] is how many subscriptions that stay feed i has (Static,
	// Probes, Followers); ChurnOn[i] how many Churn ones, which come and go.
	FanOut  []int
	ChurnOn []int
	// Followers[i] counts subscriptions to feed i that the plan did not
	// place: on attention the users' accepted recommendations. Nil elsewhere.
	Followers []int
}

// planSpec sizes a plan; each workload fills one in.
type planSpec struct {
	Feeds       int
	Probes      int
	Users       int     // static users
	SubsPerUser int     // distinct feeds per static user
	ZipfS       float64 // 0 = uniform feed popularity
	ZipfV       float64
	ChurnUsers  int
	// ChurnOnPublished subscribes the churn population to published feeds
	// (they then take part in the fan-out); otherwise they share one feed
	// nothing is published to, so they load the index and the journal
	// without changing any delivery count.
	ChurnOnPublished bool
	PayloadBytes     int
	// ProbeSlots, when set, places probe i on a user whose primary node is
	// slot i % ProbeSlots of that many nodes (the cluster's FNV placement),
	// so every node serves a consumer.
	ProbeSlots int
}

const eventRing = 1 << 16

func genPlan(seed int64, sp planSpec) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{FanOut: make([]int, sp.Feeds), ChurnOn: make([]int, sp.Feeds)}
	tag := fmt.Sprintf("%x", uint32(rng.Int63()))
	p.ControlFeed = fmt.Sprintf("http://feeds-%s.bench.test/f/control.xml", tag)
	for i := 0; i < sp.Feeds; i++ {
		p.Feeds = append(p.Feeds, fmt.Sprintf("http://feeds-%s.bench.test/f/%d.xml", tag, i))
	}
	pick := func() int { return rng.Intn(sp.Feeds) }
	if sp.ZipfS > 1 {
		z := rand.NewZipf(rng, sp.ZipfS, sp.ZipfV, uint64(sp.Feeds-1))
		// Popularity rank is not feed number: shuffle which feed is hot.
		perm := rng.Perm(sp.Feeds)
		pick = func() int { return perm[z.Uint64()] }
	}
	for u := 0; u < sp.Users; u++ {
		user := fmt.Sprintf("u%s-%05d", tag, u)
		seen := make(map[int]bool, sp.SubsPerUser)
		for len(seen) < sp.SubsPerUser && len(seen) < sp.Feeds {
			f := pick()
			if seen[f] {
				continue
			}
			seen[f] = true
			p.Static = append(p.Static, subSpec{user, f})
			p.FanOut[f]++
		}
	}
	p.EventFeeds = make([]int32, eventRing)
	hits := make([]int, sp.Feeds)
	for i := range p.EventFeeds {
		f := pick()
		p.EventFeeds[i] = int32(f)
		hits[f]++
	}
	// Probes read the feeds events go to most often, so each gets enough
	// samples for a per-second percentile.
	hot := make([]int, sp.Feeds)
	for i := range hot {
		hot[i] = i
	}
	for i := 0; i < sp.Probes && i < sp.Feeds; i++ {
		best := i
		for j := i + 1; j < len(hot); j++ {
			if hits[hot[j]] > hits[hot[best]] {
				best = j
			}
		}
		hot[i], hot[best] = hot[best], hot[i]
		p.Probes = append(p.Probes, subSpec{probeUser(tag, i, sp.ProbeSlots), hot[i]})
		p.FanOut[hot[i]]++
	}
	for c := 0; c < sp.ChurnUsers; c++ {
		f := -1 // the unpublished control feed
		if sp.ChurnOnPublished {
			f = pick()
			p.ChurnOn[f]++
		}
		p.Churn = append(p.Churn, subSpec{fmt.Sprintf("c%s-%05d", tag, c), f})
	}
	p.Filler = make([]byte, sp.PayloadBytes)
	for i := range p.Filler {
		p.Filler[i] = byte('a' + rng.Intn(26))
	}
	return p
}

// probeUser names probe i. With slots set, the name is one whose primary
// node is slot i % slots of that many nodes (the cluster's FNV placement).
func probeUser(tag string, i, slots int) string {
	for n := 0; ; n++ {
		user := fmt.Sprintf("probe%s-%d-%d", tag, i, n)
		if slots == 0 || routing.UserSlot(user, slots) == i%slots {
			return user
		}
	}
}

func (p *plan) feedOf(s subSpec) string {
	if s.Feed < 0 {
		return p.ControlFeed
	}
	return p.Feeds[s.Feed]
}

// eventSource hands out one publisher's events of one phase in plan order.
// Several publishers of a phase read disjoint parts of the ring: publisher
// pub of n starts at pub and steps by n.
type eventSource struct {
	p       *plan
	attrs   []map[string]string // per feed, shared by every event of the feed
	tag     byte
	pub     byte
	next    int      // position in the ring
	stride  int      // ring step
	seq     uint64   // events handed out by this source
	feedSeq []uint64 // per feed, events handed out
	// fresh makes every event own its payload: the in-process deployment
	// keeps a reference to it. Transports copy the bytes during the call, so
	// there the batch's buffers are reused.
	fresh bool
	bufs  [][]byte
	// feeds holds the feed of each event of the last fill.
	feeds []int
}

func newEventSource(p *plan, tag byte, pub, publishers int, fresh bool) *eventSource {
	s := &eventSource{p: p, tag: tag, pub: byte(pub), next: pub, stride: publishers, fresh: fresh, feedSeq: make([]uint64, len(p.Feeds))}
	for _, f := range p.Feeds {
		s.attrs = append(s.attrs, map[string]string{
			"type": "feed-item", "feed": f, "title": "t", "link": "http://bench.test/item",
		})
	}
	return s
}

// fill writes the next len(dst) events into dst, stamped with due as their
// publication time, and returns how many deliveries publishing them must
// make: at least lo (every static and probe subscription of their feeds)
// and at most hi (the churn population of those feeds too).
func (s *eventSource) fill(dst []reef.Event, due time.Time) (lo, hi int) {
	size := headerLen + len(s.p.Filler)
	for len(s.bufs) < len(dst) {
		s.bufs = append(s.bufs, nil)
	}
	s.feeds = s.feeds[:0]
	for i := range dst {
		f := int(s.p.EventFeeds[s.next%eventRing])
		s.next += s.stride
		buf := s.bufs[i]
		if s.fresh || buf == nil {
			buf = make([]byte, size)
			copy(buf[headerLen:], s.p.Filler)
			if !s.fresh {
				s.bufs[i] = buf
			}
		}
		putHeader(buf, header{s.tag, s.pub, s.seq, s.feedSeq[f]})
		s.seq++
		s.feedSeq[f]++
		dst[i] = reef.Event{Attrs: s.attrs[f], Payload: buf, Published: due}
		s.feeds = append(s.feeds, f)
		lo += s.p.FanOut[f]
		hi += s.p.FanOut[f] + s.p.ChurnOn[f]
	}
	return lo, hi
}
