package pubsub

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/eventalg"
	"reef/internal/simclock"
)

func testEvent(topic string) Event {
	return NewEvent("test", eventalg.Tuple{"topic": eventalg.String(topic)}, nil)
}

func TestBrokerDelivery(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, err := b.Subscribe(TopicFilter("sports"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish(context.Background(), testEvent("sports"))
	if err != nil || n != 1 {
		t.Fatalf("Publish = (%d, %v), want (1, nil)", n, err)
	}
	select {
	case ev := <-sub.Events():
		if ev.Topic() != "sports" {
			t.Errorf("delivered topic = %q", ev.Topic())
		}
		if ev.ID == 0 {
			t.Error("event ID not assigned")
		}
		if ev.Published.IsZero() {
			t.Error("event timestamp not assigned")
		}
	default:
		t.Fatal("no event delivered")
	}
}

func TestBrokerNoMatchNoDelivery(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("sports"))
	n, _ := b.Publish(context.Background(), testEvent("news"))
	if n != 0 {
		t.Fatalf("Publish matched %d, want 0", n)
	}
	select {
	case <-sub.Events():
		t.Fatal("unexpected delivery")
	default:
	}
}

func TestBrokerCancel(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("sports"))
	sub.Cancel()
	sub.Cancel() // idempotent
	if n := b.NumSubscriptions(); n != 0 {
		t.Fatalf("NumSubscriptions = %d after Cancel", n)
	}
	if _, ok := <-sub.Events(); ok {
		t.Error("channel not closed after Cancel")
	}
	n, _ := b.Publish(context.Background(), testEvent("sports"))
	if n != 0 {
		t.Error("delivery to canceled subscription")
	}
}

func TestBrokerOnCancelHook(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("x"))
	called := 0
	sub.onCancel = func() { called++ }
	sub.Cancel()
	sub.Cancel()
	if called != 1 {
		t.Fatalf("onCancel called %d times, want 1", called)
	}
}

// TestBrokerQueueSubscription pins the queue form of a subscription: a
// channel of DefaultQueueSize that keeps the oldest events and counts each
// newer one it cannot take in the broker's dropped counter, while a handler
// subscription on the same broker sees every event and drops none; Cancel
// and Close both close the channel.
func TestBrokerQueueSubscription(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	queued, err := b.Subscribe(TopicFilter("t"))
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(queued.Events()); got != DefaultQueueSize {
		t.Fatalf("cap(Events()) = %d, want %d", got, DefaultQueueSize)
	}
	handled := 0
	if _, err := b.Subscribe(TopicFilter("t"), WithHandler(func(Event) { handled++ })); err != nil {
		t.Fatal(err)
	}
	evs := make([]Event, DefaultQueueSize+3)
	for i := range evs {
		evs[i] = testEvent("t")
	}
	n, err := b.PublishBatch(context.Background(), evs)
	if err != nil || n != DefaultQueueSize+len(evs) {
		t.Fatalf("PublishBatch = (%d, %v), want %d queued and %d handled", n, err, DefaultQueueSize, len(evs))
	}
	if handled != len(evs) {
		t.Errorf("handler saw %d of %d events", handled, len(evs))
	}
	if got := b.Metrics().Snapshot()["dropped"]; got != 3 {
		t.Errorf("dropped = %v, want 3", got)
	}
	queued.Cancel()
	var ids []uint64
	for len(queued.Events()) > 0 {
		ids = append(ids, (<-queued.Events()).ID)
	}
	if len(ids) != DefaultQueueSize || ids[0] != evs[0].ID || ids[len(ids)-1] != evs[DefaultQueueSize-1].ID {
		t.Errorf("queue kept %d events, want the oldest %d", len(ids), DefaultQueueSize)
	}
	assertClosed(t, "Cancel", queued.Events())

	open, _ := b.Subscribe(TopicFilter("t"))
	b.Close()
	assertClosed(t, "broker Close", open.Events())
}

// assertClosed fails unless ch is drained and closed.
func assertClosed(t *testing.T, after string, ch <-chan Event) {
	t.Helper()
	select {
	case _, ok := <-ch:
		if ok {
			t.Errorf("event left in the channel after %s", after)
		}
	default:
		t.Errorf("channel not closed after %s", after)
	}
}

// TestBrokerHandler pins the handler contract: it runs on the publisher's
// goroutine, so every matched event has reached it, in publish order, when
// Publish returns; each call counts as a delivery, attributed to its event
// beside a queue subscription's; and the subscription has no channel.
func TestBrokerHandler(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	var handled []uint64
	sub, _ := b.Subscribe(TopicFilter("t"), WithHandler(func(ev Event) { handled = append(handled, ev.ID) }))
	queued, err := b.Subscribe(TopicFilter("t"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Events() != nil {
		t.Error("a handler subscription has a channel")
	}
	evs := make([]Event, 8)
	for i := range evs {
		evs[i] = testEvent("t")
	}
	counts := make([]int, len(evs))
	if n, err := b.PublishBatchCounts(context.Background(), evs, counts); err != nil || n != 2*len(evs) {
		t.Fatalf("PublishBatchCounts = (%d, %v), want %d handler calls and as many queue sends", n, err, len(evs))
	}
	for i, c := range counts {
		if c != 2 {
			t.Fatalf("counts[%d] = %d, want the handler and the queue counted for every event", i, c)
		}
	}
	if len(handled) != len(evs) {
		t.Fatalf("handler saw %d of %d events", len(handled), len(evs))
	}
	for i, id := range handled {
		if id != evs[i].ID {
			t.Fatalf("handler order %v, want publish order", handled)
		}
	}
	b.Publish(context.Background(), testEvent("other"))
	sub.Cancel()
	queued.Cancel()
	if n, _ := b.Publish(context.Background(), testEvent("t")); n != 0 || len(handled) != len(evs) {
		t.Errorf("after Cancel: %d deliveries, handler saw %d; want 0, %d", n, len(handled), len(evs))
	}
}

// TestBrokerHandlerConcurrentPublishers: handlers run on whichever
// goroutine publishes, one call at a time per subscription, concurrently
// with other subscriptions' handlers, Subscribe and Cancel.
func TestBrokerHandlerConcurrentPublishers(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	handled := 0 // unsynchronized on purpose: the broker serializes the calls
	if _, err := b.Subscribe(TopicFilter("t"), WithHandler(func(Event) { handled++ })); err != nil {
		t.Fatal(err)
	}
	const publishers, each = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := b.Publish(context.Background(), testEvent("t")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		s, err := b.Subscribe(TopicFilter("t"), WithHandler(func(Event) {}))
		if err != nil {
			t.Fatal(err)
		}
		s.Cancel()
	}
	wg.Wait()
	if handled != publishers*each {
		t.Errorf("handler saw %d events, want %d", handled, publishers*each)
	}
}

// TestBrokerHandlerNotEnteredAfterCancel: the canceled check and the
// handler call are atomic with respect to Cancel, so with publishers in
// full flight the handler is never entered once Cancel has returned.
// Publishers send batches: a batch is matched whole before any of it is
// delivered, so a Cancel usually lands between the two.
func TestBrokerHandlerNotEnteredAfterCancel(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := NewBroker("b1", nil)
		var gone atomic.Bool
		var late, calls atomic.Int64
		sub, err := b.Subscribe(TopicFilter("t"), WithHandler(func(Event) {
			calls.Add(1)
			if gone.Load() {
				late.Add(1)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := make([]Event, 256)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := range batch {
						batch[i] = testEvent("t")
					}
					b.PublishBatch(context.Background(), batch)
				}
			}()
		}
		for calls.Load() == 0 {
			runtime.Gosched()
		}
		sub.Cancel()
		gone.Store(true)
		close(stop)
		wg.Wait()
		b.Close()
		if n := late.Load(); n != 0 {
			t.Fatalf("round %d: handler entered %d times after Cancel returned", round, n)
		}
	}
}

// TestBrokerCanceledIsNotDropped pins the split of the two reasons a
// matched event does not reach a subscriber: dropped is an event lost to a
// full queue, canceled a delivery to a subscription that went away after
// the match and that nobody misses.
func TestBrokerCanceledIsNotDropped(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	if _, err := b.Subscribe(TopicFilter("t")); err != nil {
		t.Fatal(err)
	}
	evs := make([]Event, DefaultQueueSize+1)
	for i := range evs {
		evs[i] = testEvent("t")
	}
	b.PublishBatch(context.Background(), evs) // the last one overflows
	// A publisher that matched before the cancel delivers after it.
	gone, _ := b.Subscribe(TopicFilter("t"))
	handler, _ := b.Subscribe(TopicFilter("t"), WithHandler(func(Event) {}))
	for _, s := range []*Subscription{gone, handler} {
		s.Cancel()
		if b.deliver(s, testEvent("t")) {
			t.Fatal("delivered to a canceled subscription")
		}
	}
	snap := b.Metrics().Snapshot()
	if snap["dropped"] != 1 || snap["canceled"] != 2 || snap["delivered"] != DefaultQueueSize {
		t.Errorf("dropped = %v, canceled = %v, delivered = %v; want 1, 2, %d",
			snap["dropped"], snap["canceled"], snap["delivered"], DefaultQueueSize)
	}
}

// TestBrokerPublishContext pins what the context bounds: a canceled one
// refuses the publish outright, and one canceled mid-fan-out abandons the
// remaining deliveries and returns the count so far.
func TestBrokerPublishContext(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := b.Subscribe(TopicFilter("t"), WithHandler(func(Event) { cancel() })); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := b.Publish(ctx, testEvent("t")); n != 1 || err != context.Canceled {
		t.Errorf("Publish canceled by the first delivery = (%d, %v), want (1, %v)", n, err, context.Canceled)
	}
	if n, err := b.PublishBatch(ctx, []Event{testEvent("t")}); n != 0 || err != context.Canceled {
		t.Errorf("PublishBatch with a canceled context = (%d, %v), want (0, %v)", n, err, context.Canceled)
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker("b1", nil)
	sub, _ := b.Subscribe(TopicFilter("t"))
	b.Close()
	b.Close() // idempotent
	if _, ok := <-sub.Events(); ok {
		t.Error("channel not closed after broker Close")
	}
	if _, err := b.Publish(context.Background(), testEvent("t")); err != ErrClosed {
		t.Errorf("Publish after Close error = %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe(TopicFilter("t")); err != ErrClosed {
		t.Errorf("Subscribe after Close error = %v, want ErrClosed", err)
	}
}

func TestBrokerVirtualClockTimestamps(t *testing.T) {
	start := time.Date(2006, 4, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(start)
	b := NewBroker("b1", clock)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"))
	clock.Advance(time.Hour)
	b.Publish(context.Background(), testEvent("t"))
	ev := <-sub.Events()
	if want := start.Add(time.Hour); !ev.Published.Equal(want) {
		t.Errorf("Published = %v, want %v", ev.Published, want)
	}
}

func TestBrokerMetrics(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"))
	b.Publish(context.Background(), testEvent("t"))
	b.Publish(context.Background(), testEvent("other"))
	snap := b.Metrics().Snapshot()
	if snap["published"] != 2 {
		t.Errorf("published = %v", snap["published"])
	}
	if snap["delivered"] != 1 {
		t.Errorf("delivered = %v", snap["delivered"])
	}
	if snap["subscriptions"] != 1 {
		t.Errorf("subscriptions gauge = %v", snap["subscriptions"])
	}
	sub.Cancel()
	snap = b.Metrics().Snapshot()
	if snap["subscriptions"] != 0 {
		t.Errorf("subscriptions gauge after cancel = %v", snap["subscriptions"])
	}
	for _, name := range []string{"subscribes", "unsubscribes"} {
		if snap[name] != 1 {
			t.Errorf("%s = %v, want 1", name, snap[name])
		}
	}
	want := []string{"canceled", "delivered", "dropped", "published", "subscribes", "subscriptions", "unsubscribes"}
	if len(snap) != len(want) {
		t.Errorf("metrics %v, want exactly %v", snap, want)
	}
	for _, name := range want {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

func TestBrokerConcurrentPublishSubscribe(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b.Publish(context.Background(), testEvent("t"))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s, err := b.Subscribe(TopicFilter("t"))
				if err != nil {
					t.Error(err)
					return
				}
				s.Cancel()
			}
		}()
	}
	wg.Wait()
	if b.NumSubscriptions() != 0 {
		t.Errorf("NumSubscriptions = %d at end", b.NumSubscriptions())
	}
}

// TestBrokerConcurrentChurn hammers every broker entry point at once —
// Publish, PublishBatch, Subscribe/Cancel, the read-side probe and, last,
// Close — so the race detector exercises the RWMutex fast path and the
// pooled match state under real contention.
func TestBrokerConcurrentChurn(t *testing.T) {
	b := NewBroker("churn", nil)
	defer b.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]Event, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Publish(context.Background(), testEvent("t")); err != nil {
					return
				}
				for i := range batch {
					batch[i] = testEvent("t")
				}
				if _, err := b.PublishBatch(context.Background(), batch); err != nil {
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.NumSubscriptions()
		}
	}()

	var churn sync.WaitGroup
	for s := 0; s < 4; s++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 150; i++ {
				var opts []SubOption
				if i%2 == 1 {
					opts = append(opts, WithHandler(func(Event) {}))
				}
				sub, err := b.Subscribe(TopicFilter("t"), opts...)
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-sub.Events():
				default:
				}
				sub.Cancel()
			}
		}()
	}
	churn.Wait()
	if b.NumSubscriptions() != 0 {
		t.Errorf("NumSubscriptions = %d after the churn", b.NumSubscriptions())
	}
	// Close lands while the publishers are still in flight; they stop on
	// ErrClosed.
	b.Subscribe(TopicFilter("t"))
	b.Close()
	close(stop)
	wg.Wait()
}

// TestBrokerPublishBatch checks the batched path delivers like N singles
// and assigns IDs/timestamps in place.
func TestBrokerPublishBatch(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, err := b.Subscribe(TopicFilter("t"))
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{testEvent("t"), testEvent("other"), testEvent("t")}
	n, err := b.PublishBatch(context.Background(), evs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("delivered = %d, want 2", n)
	}
	for i, ev := range evs {
		if ev.ID == 0 || ev.Published.IsZero() {
			t.Errorf("event %d not stamped in place: %+v", i, ev)
		}
	}
	first := <-sub.Events()
	second := <-sub.Events()
	if first.ID != evs[0].ID || second.ID != evs[2].ID {
		t.Errorf("delivery order/IDs wrong: got %d,%d want %d,%d",
			first.ID, second.ID, evs[0].ID, evs[2].ID)
	}
	if n, err := b.PublishBatch(context.Background(), nil); err != nil || n != 0 {
		t.Errorf("empty batch = (%d, %v), want (0, nil)", n, err)
	}
	b.Close()
	if _, err := b.PublishBatch(context.Background(), []Event{testEvent("t")}); err != ErrClosed {
		t.Errorf("batch after close = %v, want ErrClosed", err)
	}
}
