//go:build !race

package reefstream_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/reefstream"
)

// Count budgets of one stream publish → push → ack cycle, per event.
// Each bound is the value measured when it was set plus a stated slack.
const (
	// cycleAllocsPerEvent: measured 8.20 to 8.21, whole process and
	// steady run to run (11.90 when the stream decoded into maps); slack
	// 0.75 admits a stray allocation per frame, not one more per event.
	cycleAllocsPerEvent = 8.21 + 0.75
	// cycleBytesPerEvent: measured 2 984 to 3 039 B (6 800 B when every
	// decode copied the whole frame into one shared string). Each event
	// is allocated twice, by the server's decode and by the client's,
	// each time its 1 000 B payload and its own text; encodes write into
	// pooled buffers. Slack 15%.
	cycleBytesPerEvent = 3040 * 1.15
)

// TestStreamCycleAllocBudget counts what one event costs the stream
// data plane end to end: one connection to one Centralized node with one
// AtLeastOnce subscription, a publish of 32 events with 1 000 B payloads,
// then fetches over the stream with an ack after each — a lease holds
// back the events behind it, so the consumer acks what it has before it
// asks for more. It pins allocations and heap bytes per event over 200
// cycles, whole process: client encode, server decode and publish,
// retention, push encode, client decode. The race detector changes
// allocation counts, hence the build tag.
func TestStreamCycleAllocBudget(t *testing.T) {
	const (
		feed   = "http://h.test/f"
		user   = "user-000"
		batch  = 32
		cycles = 200
	)
	dep := newDep(t, feed, 0)
	subscribeReliable(t, dep, user, feed, time.Minute)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()
	ctx := context.Background()

	payload := []byte(strings.Repeat("x", 1000))
	evs := make([]reef.Event, batch)
	for i := range evs {
		evs[i] = reef.Event{Source: "budget", Payload: payload, Attrs: map[string]string{
			"type": "feed-item", "feed": feed, "title": fmt.Sprintf("t%d", i), "link": fmt.Sprintf("http://x.test/%d", i),
		}}
	}
	cycle := func() {
		if n, err := cl.PublishBatch(ctx, evs); err != nil || n != batch {
			t.Fatalf("PublishBatch = (%d, %v), want %d", n, err, batch)
		}
		for got := 0; got < batch; {
			ds, err := cl.FetchEvents(ctx, user, feed, batch-got)
			if err != nil {
				t.Fatalf("FetchEvents: %v", err)
			}
			got += len(ds)
			if err := cl.Ack(ctx, user, feed, ds[len(ds)-1].Seq, false); err != nil {
				t.Fatalf("Ack: %v", err)
			}
		}
	}
	cycle() // dial, handshake, attach and warm the pools

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	events := float64(cycles * batch)
	allocs := float64(after.Mallocs-before.Mallocs) / events
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / events
	t.Logf("per event: %.2f allocations, %.0f B allocated", allocs, bytes)
	if allocs > cycleAllocsPerEvent {
		t.Errorf("stream cycle = %.2f allocations per event, budget %.2f", allocs, cycleAllocsPerEvent)
	}
	if bytes > cycleBytesPerEvent {
		t.Errorf("stream cycle = %.0f B allocated per event, budget %.0f", bytes, cycleBytesPerEvent)
	}
}
