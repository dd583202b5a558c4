// Reliable-delivery benchmarks: the acked consume cycle, lease-expiry
// redelivery, and dead-letter drain on the internal/delivery queue —
// the per-subscription layer every at-least-once subscription funnels
// through — plus the server-level consume planes on a live node: the
// REST polling consumer against the server-pushed stream consumer, for
// both acked throughput and publish→deliver latency. Emits
// BENCH_delivery.json; stream_vs_rest_consume_speedup and the e2e p99
// rows are the values the ISSUE acceptance gate reads.
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"reef"
	"reef/internal/delivery"
	"reef/internal/eventalg"
	"reef/internal/experiments"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/reefclient"
	"reef/reefstream"
)

// BenchDeliveryOptions tunes the reliable-delivery benchmark.
type BenchDeliveryOptions struct {
	Ops        int // operations per queue-level configuration
	Batch      int // events per fetch/ack cycle
	ConsumeOps int // events per server-level consume-throughput row
	E2EOps     int // paced events per publish→deliver latency row
	OutDir     string
}

// consumePlane is the consumer surface both transports expose:
// reefclient.Client polls it over REST, reefstream.Client is pushed to
// over the persistent binary connection.
type consumePlane interface {
	FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error)
	Ack(ctx context.Context, user, subID string, seq int64, nack bool) error
}

const (
	// Each plane consumes at its own operating point, mirroring the
	// ingest rows in BENCH_stream.json (one HTTP request per event for
	// rest_publish, pipelined frames for stream_publish): a tight-poll
	// REST consumer at the real-time operating point is arrival-limited
	// to ~one event per poll, so its per-event transport cost is one
	// GET plus one ack POST (JSON both ways); a stream consumer drains
	// whole pushed frames (the server coalesces up to MaxFrameEvents
	// per deliver frame) and acks each drain cumulatively.
	restFetchMax   = 1
	restE2EPage    = 64 // catch-up page of the polling e2e consumer
	streamFetchMax = reefstream.MaxFrameEvents
	consumeWave    = 2048                 // in-process publish wave, < delivery.DefaultCapacity
	restPollSleep  = 5 * time.Millisecond // idle-poll interval of the REST consumer
)

// benchDelivery measures the reliable tier three ways, time injected so
// no wall-clock wait shapes the numbers:
//
//   - acked_cycle: the steady-state consumer loop — append a batch,
//     fetch it, ack cumulatively. Ops/sec here is acked throughput.
//   - redelivery: every fetch happens after the previous lease expired,
//     so each op is one redelivered batch (attempts climbing toward the
//     cap); p99 is the redelivery tail the SLA cares about.
//   - dlq_drain: appends against a full retained window dead-letter the
//     oldest event each time; the drain empties the DLQ every batch.
//     Ops/sec is the sustained drain rate.
func benchDelivery(opt BenchDeliveryOptions) experiments.Result {
	if opt.Ops <= 0 {
		opt.Ops = 200_000
	}
	if opt.Batch <= 0 {
		opt.Batch = 64
	}
	if opt.ConsumeOps <= 0 {
		opt.ConsumeOps = 60_000
	}
	if opt.E2EOps <= 0 {
		opt.E2EOps = 1_500
	}
	ev := pubsub.NewEvent("bench", eventalg.Tuple{"topic": eventalg.String("hot")}, nil)
	noJitter := func(d time.Duration) time.Duration { return d }
	t0 := time.Unix(1136073600, 0) // injected epoch; advanced, never read from the clock

	var results []BenchResult

	// Steady-state consumer: each op is one event through the full
	// append -> fetch -> cumulative-ack cycle, batched like a real
	// consumer (one fetch and one ack per Batch events).
	{
		q := delivery.NewQueue(delivery.Config{Capacity: 2 * opt.Batch, Jitter: noJitter})
		now := t0
		results = append(results, measure("acked_cycle", opt.Ops, 1, func(i int) {
			q.Append(ev, now)
			if (i+1)%opt.Batch == 0 {
				evs := q.Fetch(opt.Batch, now)
				if len(evs) > 0 {
					if err := q.Ack(evs[len(evs)-1].Seq, now); err != nil {
						panic(err)
					}
				}
				now = now.Add(time.Millisecond)
			}
		}))
	}

	// Redelivery: a never-acking consumer whose lease always expired.
	// Generous MaxAttempts keeps every op a redelivery, not a DLQ move.
	{
		cfg := delivery.Config{
			Capacity:    2 * opt.Batch,
			MaxAttempts: opt.Ops + 2,
			AckTimeout:  time.Second,
			Jitter:      noJitter,
		}
		q := delivery.NewQueue(cfg)
		now := t0
		for i := 0; i < opt.Batch; i++ {
			q.Append(ev, now)
		}
		q.Fetch(opt.Batch, now) // first (non-re) delivery outside the loop
		results = append(results, measure("redelivery", opt.Ops/opt.Batch, 1, func(int) {
			// Past lease + max backoff, the whole window redelivers.
			now = now.Add(cfg.AckTimeout + delivery.DefaultBackoffMax + time.Second)
			if got := q.Fetch(opt.Batch, now); len(got) != opt.Batch {
				panic(fmt.Sprintf("redelivery fetch returned %d of %d", len(got), opt.Batch))
			}
		}))
	}

	// Dead-letter drain: the window is kept full, so every append
	// dead-letters the oldest event (reason "overflow"); each op drains
	// one accumulated batch.
	{
		q := delivery.NewQueue(delivery.Config{Capacity: opt.Batch, Jitter: noJitter})
		now := t0
		for i := 0; i < opt.Batch; i++ {
			q.Append(ev, now)
		}
		results = append(results, measure("dlq_drain", opt.Ops/opt.Batch, 1, func(int) {
			for i := 0; i < opt.Batch; i++ {
				q.Append(ev, now)
			}
			if got := len(q.Drain()); got != opt.Batch {
				panic(fmt.Sprintf("drained %d dead letters, want %d", got, opt.Batch))
			}
		}))
	}

	// Server-level consume planes: one live node, one at-least-once
	// subscription, the same in-process publisher — the only variable is
	// how the consumer gets its events. The REST rows poll the fetch
	// endpoint; the stream rows sit on the pushed data plane.
	values := map[string]float64{}
	{
		// The publisher appends to the reliable queue itself, so no broker
		// queue stands between a publish wave and the consumer.
		node, cfg := startBenchNode("n0")
		feed := "http://bench.test/reliable"
		user := "consumer-0"
		ctx := context.Background()
		sub, err := node.dep.Subscribe(ctx, user, feed,
			reef.WithGuarantee(reef.AtLeastOnce),
			reef.WithAckTimeout(time.Minute),
			reef.WithMaxAttempts(1_000_000))
		if err != nil {
			panic(err)
		}
		// Delivered events carry content; 1 KiB is the canonical
		// messaging-benchmark message size. The payload is where the
		// planes diverge hardest: the binary frame copies the bytes, the
		// REST path base64s them inside JSON in both directions.
		payload := make([]byte, 1024)
		for i := range payload {
			payload[i] = byte('a' + i%26)
		}
		proto := reef.Event{Attrs: map[string]string{
			"type": "feed-item", "feed": feed, "title": "t", "link": "http://bench.test/item",
		}, Payload: payload}

		restClient := reefclient.New(cfg.BaseURL)
		streamClient := reefstream.NewClient(cfg.StreamAddr, reefstream.WithExpectNode("n0"))

		// Both REST rows run before the stream client's first fetch: a
		// stream consumer session, once attached, is pushed every new
		// event the moment it is retained — a REST poller sharing the
		// subscription would only ever see leased (invisible) events.
		// The REST row pays two HTTP round trips per event, so it gets a
		// proportionally smaller (but still statistically comfortable)
		// event count; rates are per second, so the rows compare directly.
		restTput := consumeThroughputRow("rest_poll_consume", node.dep, restClient, user, sub.ID, proto, opt.ConsumeOps/4, restFetchMax, true)
		restE2E := e2eLatencyRow("rest_poll_e2e", node.dep, restClient, user, sub.ID, proto, opt.E2EOps, restE2EPage, true)
		streamTput := consumeThroughputRow("stream_consume", node.dep, streamClient, user, sub.ID, proto, opt.ConsumeOps, streamFetchMax, false)
		streamE2E := e2eLatencyRow("stream_e2e", node.dep, streamClient, user, sub.ID, proto, opt.E2EOps, streamFetchMax, false)
		results = append(results, restTput, streamTput, restE2E, streamE2E)

		_ = streamClient.Close()
		_ = restClient.Close()
		node.stop()

		values["rest_poll_consume_ops_per_sec"] = restTput.OpsPerSec
		values["stream_consume_ops_per_sec"] = streamTput.OpsPerSec
		speedup := 0.0
		if restTput.OpsPerSec > 0 {
			speedup = streamTput.OpsPerSec / restTput.OpsPerSec
		}
		values["stream_vs_rest_consume_speedup"] = speedup
		values["rest_poll_e2e_p99_micros"] = restE2E.P99Micros
		values["stream_e2e_p99_micros"] = streamE2E.P99Micros
	}

	if err := writeBenchFile(opt.OutDir, "delivery", results); err != nil {
		panic(err)
	}
	res := benchTable("Reliable delivery: queue cycle, redelivery, DLQ drain, REST-poll vs stream consume", results)
	res.Values = values
	res.Table.AddNote("consume rows mirror the BENCH_stream ingest methodology: rest_poll = one GET + one ack POST per event (a tight-poll consumer at the real-time operating point is arrival-limited to ~1 event per poll), stream = drain server-pushed deliver frames (≤%d events) with one cumulative ack per drain; 1 KiB payloads; p50/p99 on throughput rows are per fetch+ack cycle",
		streamFetchMax)
	res.Table.AddNote("e2e rows: paced publisher stamps Published, latency is publish→deliver at the consumer (p50/p99 in µs); recorded at GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	res.Table.AddNote("stream vs REST acked-consume throughput: %.2fx; e2e p99 rest=%.0fµs stream=%.0fµs",
		values["stream_vs_rest_consume_speedup"], values["rest_poll_e2e_p99_micros"], values["stream_e2e_p99_micros"])
	return res
}

// consumeThroughputRow measures the acked consume cycle against a live
// node: the publisher appends a wave in process and checks that all of
// it is retained, then the timer covers only the
// consumer working the plane under test — fetch a batch, ack its last
// seq cumulatively, repeat until the wave is drained. Excluding the
// shared ingest pipeline from the timed region is what makes the row a
// transport comparison; both planes exclude exactly the same work.
// Waves stay under the retained-window capacity and are fully acked
// before the next one, so nothing overflows to the DLQ and every event
// is consumed exactly once. Per-op latency is one fetch+ack cycle;
// ops/sec counts events over consume time.
func consumeThroughputRow(name string, dep *reef.Centralized, cp consumePlane, user, subID string, proto reef.Event, total, fetchMax int, poll bool) BenchResult {
	ctx := context.Background()
	wave := make([]reef.Event, 0, consumeWave)
	hist := &metrics.Histogram{}
	var consumeTime time.Duration
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := 0
	for done < total {
		n := total - done
		if n > consumeWave {
			n = consumeWave
		}
		wave = wave[:0]
		for i := 0; i < n; i++ {
			wave = append(wave, proto)
		}
		if _, err := dep.PublishBatch(ctx, wave); err != nil {
			panic(err)
		}
		waitRetained(dep, n)
		start := time.Now()
		consumed := 0
		for consumed < n {
			t0 := time.Now()
			evs, err := cp.FetchEvents(ctx, user, subID, fetchMax)
			if err != nil {
				panic(err)
			}
			if len(evs) == 0 {
				if poll {
					time.Sleep(restPollSleep)
				}
				continue
			}
			if err := cp.Ack(ctx, user, subID, evs[len(evs)-1].Seq, false); err != nil {
				panic(err)
			}
			hist.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
			consumed += len(evs)
		}
		consumeTime += time.Since(start)
		done += n
	}
	runtime.ReadMemStats(&after)
	return BenchResult{
		Name:        name,
		Ops:         total,
		OpsPerSec:   float64(total) / consumeTime.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(total),
		P50Micros:   hist.Quantile(0.5),
		P99Micros:   hist.Quantile(0.99),
	}
}

// waitRetained blocks until the node's one reliable subscription has n
// retained (unacked) events — the published wave is consumable.
func waitRetained(dep *reef.Centralized, n int) {
	ctx := context.Background()
	for {
		st, err := dep.Stats(ctx)
		if err != nil {
			panic(err)
		}
		if int(st["delivery_retained"]) >= n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// e2eLatencyRow measures publish→deliver latency under a paced load: a
// publisher goroutine stamps Published and publishes one event every
// pace tick; the consumer clocks time.Since(Published) the moment each
// event lands, acking as it goes. The REST consumer sleeps its poll
// interval on every empty fetch — the realistic polling loop the
// stream plane replaces; the stream consumer just blocks until the
// server pushes.
func e2eLatencyRow(name string, dep *reef.Centralized, cp consumePlane, user, subID string, proto reef.Event, total, fetchMax int, poll bool) BenchResult {
	const pace = 2 * time.Millisecond
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			ev := proto
			ev.Published = time.Now()
			if _, err := dep.PublishEvent(ctx, ev); err != nil {
				panic(err)
			}
			time.Sleep(pace)
		}
	}()
	hist := &metrics.Histogram{}
	start := time.Now()
	received := 0
	for received < total {
		evs, err := cp.FetchEvents(ctx, user, subID, fetchMax)
		if err != nil {
			panic(err)
		}
		if len(evs) == 0 {
			if poll {
				time.Sleep(restPollSleep)
			}
			continue
		}
		now := time.Now()
		for _, ev := range evs {
			hist.Observe(float64(now.Sub(ev.Event.Published).Nanoseconds()) / 1e3)
		}
		if err := cp.Ack(ctx, user, subID, evs[len(evs)-1].Seq, false); err != nil {
			panic(err)
		}
		received += len(evs)
	}
	elapsed := time.Since(start)
	wg.Wait()
	return BenchResult{
		Name:      name,
		Ops:       total,
		OpsPerSec: float64(total) / elapsed.Seconds(),
		P50Micros: hist.Quantile(0.5),
		P99Micros: hist.Quantile(0.99),
	}
}
