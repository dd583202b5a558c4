package reefstream_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"reef"
	"reef/reefclient"
	"reef/reefhttp"
	"reef/reefstream"
)

// subscribeReliable registers an at-least-once subscription for user on
// feed with a short ack timeout, so lease expiry is testable in real
// time. The subscription ID is the feed URL.
func subscribeReliable(t *testing.T, dep *reef.Centralized, user, feed string, ackTimeout time.Duration) {
	t.Helper()
	_, err := dep.Subscribe(context.Background(), user, feed,
		reef.WithGuarantee(reef.AtLeastOnce),
		reef.WithAckTimeout(ackTimeout),
		reef.WithMaxAttempts(20))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
}

// collectSeqs drains FetchEvents until every sequence in [lo, hi] has
// been seen or the deadline passes, returning the full set observed.
func collectSeqs(t *testing.T, fetch func(ctx context.Context, max int) ([]reef.DeliveredEvent, error), lo, hi int64) map[int64]int {
	t.Helper()
	seen := make(map[int64]int)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		evs, err := fetch(ctx, 64)
		cancel()
		if err != nil && ctx.Err() == nil {
			t.Fatalf("FetchEvents: %v", err)
		}
		for _, ev := range evs {
			seen[ev.Seq]++
		}
		complete := true
		for s := lo; s <= hi; s++ {
			if seen[s] == 0 {
				complete = false
				break
			}
		}
		if complete {
			return seen
		}
	}
	t.Fatalf("never saw all of [%d, %d]; got %v", lo, hi, seen)
	return nil
}

// TestStreamConsumeAckE2E pins the happy path of the consume plane:
// events published after a consumer attaches are pushed without
// polling, cumulative acks retire them, and a nack redelivers.
func TestStreamConsumeAckE2E(t *testing.T) {
	const feed = "http://h.test/f"
	const user = "user-000"
	dep := newDep(t, feed, 1)
	// A long ack timeout: no lease expires mid-test, so every delivery
	// count below is exact.
	subscribeReliable(t, dep, user, feed, time.Minute)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ctx := context.Background()
	// Attach before publishing: the first fetch parks on the push
	// channel, so a non-empty result proves the notify hook fired.
	attach, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if evs, err := cl.FetchEvents(attach, user, feed, 16); err != nil && attach.Err() == nil {
		t.Fatalf("attach FetchEvents: %v", err)
	} else if len(evs) != 0 {
		t.Fatalf("fetched %d events before any publish", len(evs))
	}
	cancel()

	const total = 5
	for i := 0; i < total; i++ {
		if _, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil {
			t.Fatalf("PublishEvent: %v", err)
		}
	}

	// Delivery is in order: a leased event blocks everything behind it,
	// so the consumer acks cumulatively as events arrive. With a
	// one-minute lease and prompt acks, every seq must arrive exactly
	// once.
	fetch := func(ctx context.Context, max int) ([]reef.DeliveredEvent, error) {
		return cl.FetchEvents(ctx, user, feed, max)
	}
	seen := make(map[int64]int)
	deadline := time.Now().Add(10 * time.Second)
	for int64(len(seen)) < total && time.Now().Before(deadline) {
		fctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		evs, err := fetch(fctx, 64)
		cancel()
		if err != nil && fctx.Err() == nil {
			t.Fatalf("FetchEvents: %v", err)
		}
		if len(evs) == 0 {
			continue
		}
		for _, ev := range evs {
			seen[ev.Seq]++
		}
		if err := cl.Ack(ctx, user, feed, evs[len(evs)-1].Seq, false); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	for s := int64(1); s <= total; s++ {
		if seen[s] != 1 {
			t.Errorf("seq %d delivered %d times with prompt acks, want 1", s, seen[s])
		}
	}

	// Nack path: one more event, leased but unacked; the nack skips the
	// remainder of its one-minute lease so it redelivers after backoff.
	// The five acked events must never reappear.
	if _, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil {
		t.Fatalf("PublishEvent: %v", err)
	}
	first := collectSeqs(t, fetch, total+1, total+1)
	if err := cl.Ack(ctx, user, feed, total+1, true); err != nil {
		t.Fatalf("nack: %v", err)
	}
	again := collectSeqs(t, fetch, total+1, total+1)
	for s := int64(1); s <= total; s++ {
		if first[s] != 0 || again[s] != 0 {
			t.Errorf("acked seq %d redelivered after nack", s)
		}
	}
	if err := cl.Ack(ctx, user, feed, total+1, false); err != nil {
		t.Fatalf("ack: %v", err)
	}
	st, err := dep.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st["delivery_retained"] != 0 {
		t.Errorf("delivery_retained = %v after final ack, want 0", st["delivery_retained"])
	}
}

// TestStreamConsumerKillResumeE2E kills a streaming consumer mid-window
// and resumes over both transports. The invariant: acked events never
// reappear, and every unacked event survives the kill — first leased to
// a REST poller once the dead consumer's leases expire, then, after new
// publishes, pushed to a fresh stream consumer.
func TestStreamConsumerKillResumeE2E(t *testing.T) {
	const feed = "http://h.test/f"
	const user = "user-000"
	dep := newDep(t, feed, 1)
	subscribeReliable(t, dep, user, feed, 300*time.Millisecond)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(reefhttp.NewHandler(dep, nil))
	defer ts.Close()
	rcli := reefclient.New(ts.URL, reefclient.WithHTTPClient(ts.Client()))
	defer rcli.Close()

	ctx := context.Background()
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := dep.PublishEvent(ctx, feedEvent(feed)); err != nil {
			t.Fatalf("PublishEvent: %v", err)
		}
	}

	// Consumer one: stream, receive the window, ack through 3, die with
	// 4..10 leased but unacked.
	cl1 := reefstream.NewClient(srv.Addr().String())
	collectSeqs(t, func(ctx context.Context, max int) ([]reef.DeliveredEvent, error) {
		return cl1.FetchEvents(ctx, user, feed, max)
	}, 1, total)
	if err := cl1.Ack(ctx, user, feed, 3, false); err != nil {
		t.Fatalf("ack: %v", err)
	}
	cl1.Close()

	// Resume over REST. The dead consumer's leases expire after the ack
	// timeout; the poller must then see exactly 4..10 — no gap, and
	// nothing at or below the acked cursor.
	seen := collectSeqs(t, func(ctx context.Context, max int) ([]reef.DeliveredEvent, error) {
		return rcli.FetchEvents(ctx, user, feed, max)
	}, 4, total)
	for s := int64(1); s <= 3; s++ {
		if seen[s] != 0 {
			t.Errorf("acked seq %d redelivered after consumer kill", s)
		}
	}
	if err := rcli.Ack(ctx, user, feed, total, false); err != nil {
		t.Fatalf("REST ack: %v", err)
	}

	// Resume over a fresh stream: only the new publishes arrive.
	for i := 0; i < 3; i++ {
		if _, err := dep.PublishEvent(ctx, feedEvent(feed)); err != nil {
			t.Fatalf("PublishEvent: %v", err)
		}
	}
	cl2 := reefstream.NewClient(srv.Addr().String())
	defer cl2.Close()
	resumed := collectSeqs(t, func(ctx context.Context, max int) ([]reef.DeliveredEvent, error) {
		return cl2.FetchEvents(ctx, user, feed, max)
	}, total+1, total+3)
	for s := range resumed {
		if s <= total {
			t.Errorf("seq %d redelivered to resumed consumer after cumulative ack %d", s, total)
		}
	}
	if err := cl2.Ack(ctx, user, feed, total+3, false); err != nil {
		t.Fatalf("ack: %v", err)
	}
	st, err := dep.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st["delivery_retained"] != 0 {
		t.Errorf("delivery_retained = %v after final ack, want 0", st["delivery_retained"])
	}
}

// TestStreamConsumeUnsupportedSubscription pins server verdicts: a
// best-effort subscription and an unknown subscription both fail the
// attach with typed errors rather than hanging the consumer.
func TestStreamConsumeUnsupportedSubscription(t *testing.T) {
	const feed = "http://h.test/f"
	dep := newDep(t, feed, 1) // user-000 subscribes best-effort
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ctx := context.Background()
	if _, err := cl.FetchEvents(ctx, "user-000", feed, 8); err == nil {
		t.Error("FetchEvents on a best-effort subscription succeeded, want typed refusal")
	}
	if _, err := cl.FetchEvents(ctx, "nobody", feed, 8); err == nil {
		t.Error("FetchEvents for an unknown user succeeded, want typed refusal")
	}
}

// TestStreamAckWakesPusher pins that a consume-ack wakes the pusher: an
// event published while the head was leased arrives right after the
// ack retires the head, not on the next redelivery tick. Each round
// starts right after the previous one's delivery, so a pusher that
// waited for the tick would miss the bound in every round after the
// first.
func TestStreamAckWakesPusher(t *testing.T) {
	const feed = "http://h.test/f"
	const user = "user-000"
	const bound = 50 * time.Millisecond
	dep := newDep(t, feed, 1)
	subscribeReliable(t, dep, user, feed, time.Minute)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()
	ctx := context.Background()

	fetchOne := func() reef.DeliveredEvent {
		t.Helper()
		fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		evs, err := cl.FetchEvents(fctx, user, feed, 16)
		if err != nil || len(evs) != 1 {
			t.Fatalf("FetchEvents = (%d events, %v), want 1", len(evs), err)
		}
		return evs[0]
	}
	for round := 0; round < 5; round++ {
		if _, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil {
			t.Fatal(err)
		}
		head := fetchOne()
		// Published behind the leased head: its append wakes the pusher,
		// which cannot fetch past the lease.
		if _, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := cl.Ack(ctx, user, feed, head.Seq, false); err != nil {
			t.Fatal(err)
		}
		next := fetchOne()
		if wait := time.Since(start); wait >= bound {
			t.Errorf("round %d: event %d arrived %v after the ack, want < %v", round, next.Seq, wait, bound)
		}
		if next.Seq != head.Seq+1 {
			t.Fatalf("round %d: got seq %d after acking %d", round, next.Seq, head.Seq)
		}
		if err := cl.Ack(ctx, user, feed, next.Seq, false); err != nil {
			t.Fatal(err)
		}
	}
}
