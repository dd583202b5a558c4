package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"reef"
	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/eventalg"
	"reef/internal/ir"
	"reef/internal/pubsub"
	"reef/internal/simclock"
	"reef/internal/waif"
	"reef/reefstream"
)

// Probes replay the workload's own generated inputs straight into one
// layer's public API, with nothing else running: what a layer costs on these
// inputs when it is alone. They run after the measured phases of a traced
// run.

const (
	probeEvents  = 2048 // events a probe replays
	probeRepeats = 5    // a probe's cost is the median of this many passes
)

// tupleOf is the attribute tuple the broker matches an event on.
func tupleOf(ev reef.Event) eventalg.Tuple {
	t := make(eventalg.Tuple, len(ev.Attrs))
	for k, v := range ev.Attrs {
		t[k] = eventalg.String(v)
	}
	return t
}

// planEvents draws n events from the plan the way the publishers do.
func planEvents(p *plan, n int) []reef.Event {
	src := newEventSource(p, 'P', 0, 1, true)
	evs := make([]reef.Event, n)
	src.fill(evs, time.Now())
	return evs
}

// subscribedFeeds lists the feed of every subscription the run's nodes
// hold, churn population included.
func subscribedFeeds(p *plan) []string {
	var feeds []string
	for _, group := range [][]subSpec{p.Probes, p.Static, p.Churn} {
		for _, s := range group {
			feeds = append(feeds, p.feedOf(s))
		}
	}
	for f, n := range p.Followers {
		for i := 0; i < n; i++ {
			feeds = append(feeds, p.Feeds[f])
		}
	}
	return feeds
}

func medianOf(n int, fn func() float64) float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = fn()
	}
	return median(vals)
}

// probeIndex times pubsub.Index.MatchAppend over the plan's subscriptions
// and events: nanoseconds per event and matches per event.
func probeIndex(p *plan) (nsPerEvent, matchedPerEvent float64) {
	ix := pubsub.NewIndex()
	for _, feed := range subscribedFeeds(p) {
		ix.Add(waif.ItemFilter(feed))
	}
	evs := planEvents(p, probeEvents)
	tuples := make([]eventalg.Tuple, len(evs))
	for i := range evs {
		tuples[i] = tupleOf(evs[i])
	}
	var matched int
	var ids []int64
	nsPerEvent = medianOf(probeRepeats, func() float64 {
		matched = 0
		start := time.Now()
		for _, t := range tuples {
			ids = ix.MatchAppend(t, ids[:0])
			matched += len(ids)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(tuples))
	})
	return nsPerEvent, float64(matched) / float64(len(tuples))
}

// probeBroker times pubsub.Broker on the plan's subscriptions: PublishBatch
// per delivery (every subscriber's queue drained between passes, so nothing
// is dropped), and a Subscribe+Cancel pair on the loaded broker.
func probeBroker(p *plan, batch int) (nsPerDelivery, subscribeMicrosP50 float64, err error) {
	b := pubsub.NewBroker("probe", simclock.Real{})
	defer b.Close()
	var subs []*pubsub.Subscription
	for _, feed := range subscribedFeeds(p) {
		s, err := b.Subscribe(waif.ItemFilter(feed))
		if err != nil {
			return 0, 0, err
		}
		subs = append(subs, s)
	}
	// Few enough events that no queue of 64 overflows between drains.
	evs := planEvents(p, 256)
	pevs := make([]pubsub.Event, len(evs))
	for i := range evs {
		pevs[i] = pubsub.NewEvent("probe", tupleOf(evs[i]), evs[i].Payload)
	}
	drain := func() {
		for _, s := range subs {
			for len(s.Events()) > 0 {
				<-s.Events()
			}
		}
	}
	ctx := context.Background()
	var perr error
	nsPerDelivery = medianOf(probeRepeats, func() float64 {
		drain()
		delivered := 0
		start := time.Now()
		for i := 0; i+batch <= len(pevs); i += batch {
			n, err := b.PublishBatch(ctx, pevs[i:i+batch])
			if err != nil {
				perr = err
			}
			delivered += n
		}
		if delivered == 0 {
			return 0
		}
		return float64(time.Since(start).Nanoseconds()) / float64(delivered)
	})
	if perr != nil {
		return 0, 0, perr
	}
	var pairs []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		s, err := b.Subscribe(waif.ItemFilter(p.Feeds[i%len(p.Feeds)]))
		if err != nil {
			return 0, 0, err
		}
		s.Cancel()
		pairs = append(pairs, micros(time.Since(start)))
	}
	return nsPerDelivery, median(pairs), nil
}

// probeQueue times delivery.Queue alone on the plan's events: Append per
// event, FetchInto per event and Ack per call.
func probeQueue(p *plan) (appendNs, fetchNsPerEvent, ackNs float64) {
	evs := planEvents(p, probeEvents)
	pevs := make([]pubsub.Event, len(evs))
	for i := range evs {
		pevs[i] = pubsub.NewEvent("probe", tupleOf(evs[i]), evs[i].Payload)
	}
	now := time.Now()
	var appends, fetches, acks []float64
	for pass := 0; pass < probeRepeats; pass++ {
		q := delivery.NewQueue(delivery.Config{Capacity: 2 * probeEvents, AckTimeout: probeAckTimeout, MaxAttempts: probeMaxAttempts})
		start := time.Now()
		for _, ev := range pevs {
			q.Append(ev, now)
		}
		appends = append(appends, float64(time.Since(start).Nanoseconds())/float64(len(pevs)))
		var buf []delivery.Delivered
		var fetchTotal, ackTotal time.Duration
		ackCalls := 0
		for {
			start = time.Now()
			buf = q.FetchInto(buf[:0], 64, now)
			fetchTotal += time.Since(start)
			if len(buf) == 0 {
				break
			}
			start = time.Now()
			_ = q.Ack(buf[len(buf)-1].Seq, now)
			ackTotal += time.Since(start)
			ackCalls++
		}
		fetches = append(fetches, float64(fetchTotal.Nanoseconds())/float64(len(pevs)))
		acks = append(acks, float64(ackTotal.Nanoseconds())/float64(ackCalls))
	}
	return median(appends), median(fetches), median(acks)
}

// probeJournal times durable.Journal.Record on a file backend with the
// nodes' sync policy: cursor-ack records, the ones the consume path
// journals.
func probeJournal(base string) (recordNs float64, err error) {
	dir, err := os.MkdirTemp(base, "journal-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	backend, err := durable.OpenFile(filepath.Join(dir, "wal"), durable.FileOptions{Sync: durable.SyncNever})
	if err != nil {
		return 0, err
	}
	j := durable.NewJournal(backend)
	j.Arm(func() (*durable.State, error) { return &durable.State{Version: 1}, nil }, 0)
	const records = 4096
	now := time.Now()
	start := time.Now()
	for i := 0; i < records; i++ {
		rec := durable.CursorAckPayload{User: "probe-user", ID: "http://bench.test/feed", Seq: int64(i + 1), At: now}
		if err := j.Record(func() error { return nil }, func() durable.Record { return durable.CursorAckRecord(rec) }); err != nil {
			_ = j.Close()
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := j.Close(); err != nil {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / records, nil
}

// probeEncode times reefstream.EncodeEvents on the workload's batches and
// reports the frame payload bytes per event.
func probeEncode(p *plan, batch int) (nsPerEvent, bytesPerEvent float64) {
	evs := planEvents(p, probeEvents)
	var bytes int
	nsPerEvent = medianOf(probeRepeats, func() float64 {
		bytes = 0
		start := time.Now()
		for i := 0; i+batch <= len(evs); i += batch {
			bytes += len(reefstream.EncodeEvents(evs[i : i+batch]))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(evs)/batch*batch)
	})
	return nsPerEvent, float64(bytes) / float64(len(evs)/batch*batch)
}

// probeRank times the BM25 ranking the content recommender runs, over a
// corpus of the generated web's pages: one query per page, made of that
// page's most frequent terms.
func probeRank(pages map[string]string) (rankMicrosP50 float64, err error) {
	if len(pages) == 0 {
		return 0, fmt.Errorf("rank probe: no pages")
	}
	corpus := ir.NewCorpus()
	var docs []*ir.Document
	for id, text := range pages {
		docs = append(docs, corpus.AddText(id, text))
	}
	bm := ir.NewBM25(corpus, ir.BM25Params{})
	var times []float64
	for i, d := range docs {
		if i >= 200 {
			break
		}
		query := make(map[string]float64)
		for term, tf := range d.Terms {
			if tf > 1 && len(query) < 30 {
				query[term] = float64(tf)
			}
		}
		if len(query) == 0 {
			continue
		}
		start := time.Now()
		bm.RankTop(query, 10)
		times = append(times, micros(time.Since(start)))
	}
	return median(times), nil
}
