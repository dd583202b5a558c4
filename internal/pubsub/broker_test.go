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

func TestBrokerDropNewest(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(2), WithPolicy(DropNewest))
	for i := 0; i < 5; i++ {
		b.Publish(context.Background(), testEvent("t"))
	}
	if got := sub.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	// The two oldest events survive.
	if len(sub.Events()) != 2 {
		t.Errorf("queued = %d, want 2", len(sub.Events()))
	}
}

// TestBrokerHandler pins the handler contract: it runs on the publisher's
// goroutine, so every matched event has reached it, in publish order, when
// Publish returns; each call counts as a delivery; and the subscription
// has no channel and nothing to overflow.
func TestBrokerHandler(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	var handled []uint64
	sub, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(1), WithPolicy(Block),
		WithHandler(func(ev Event) { handled = append(handled, ev.ID) }))
	queued, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(1))
	if sub.Events() != nil {
		t.Error("a handler subscription has a channel")
	}
	evs := make([]Event, 8)
	for i := range evs {
		evs[i] = testEvent("t")
	}
	counts := make([]int, len(evs))
	if n, err := b.PublishBatchCounts(context.Background(), evs, counts); err != nil || n != len(evs)+1 {
		t.Fatalf("PublishBatchCounts = (%d, %v), want %d handler calls and one queue send", n, err, len(evs))
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v, want the handler counted for every event", counts)
	}
	if len(handled) != len(evs) {
		t.Fatalf("handler saw %d of %d events", len(handled), len(evs))
	}
	for i, id := range handled {
		if id != evs[i].ID {
			t.Fatalf("handler order %v, want publish order", handled)
		}
	}
	if sub.Dropped() != 0 || queued.Dropped() != 7 {
		t.Errorf("Dropped: handler %d, queue %d; want 0, 7", sub.Dropped(), queued.Dropped())
	}
	b.Publish(context.Background(), testEvent("other"))
	sub.Cancel()
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
// matched event does not reach a queue: dropped is an event lost to a full
// queue, canceled a delivery to a subscription that went away after the
// match and that nobody misses.
func TestBrokerCanceledIsNotDropped(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	ctx := context.Background()
	full, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(1))
	gone, _ := b.Subscribe(TopicFilter("t"))
	blocked, _ := b.Subscribe(TopicFilter("t"), WithPolicy(Block))
	b.Publish(ctx, testEvent("t"))
	b.Publish(ctx, testEvent("t")) // overflows full
	// A publisher that matched before the cancel delivers after it.
	gone.Cancel()
	blocked.Cancel()
	for _, s := range []*Subscription{gone, blocked} {
		if b.deliver(ctx, s, testEvent("t")) {
			t.Fatal("delivered to a canceled subscription")
		}
	}
	snap := b.Metrics().Snapshot()
	if snap["dropped"] != 1 || snap["canceled"] != 2 || snap["delivered"] != 5 {
		t.Errorf("dropped = %v, canceled = %v, delivered = %v; want 1, 2, 5",
			snap["dropped"], snap["canceled"], snap["delivered"])
	}
	if full.Dropped() != 1 || gone.Dropped() != 0 {
		t.Errorf("Dropped: full %d, gone %d; want 1, 0", full.Dropped(), gone.Dropped())
	}
}

func TestBrokerDropOldest(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(1000, 0))
	b := NewBroker("b1", clock)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(2), WithPolicy(DropOldest))
	var lastID uint64
	for i := 0; i < 5; i++ {
		ev := testEvent("t")
		b.Publish(context.Background(), ev)
	}
	if got := sub.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	// Drain: the newest two events should be there.
	var ids []uint64
	for len(sub.Events()) > 0 {
		ev := <-sub.Events()
		ids = append(ids, ev.ID)
	}
	if len(ids) != 2 {
		t.Fatalf("drained %d events, want 2", len(ids))
	}
	if ids[0] >= ids[1] {
		t.Errorf("events out of order: %v", ids)
	}
	_ = lastID
}

func TestBrokerBlockPolicy(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(1), WithPolicy(Block))
	b.Publish(context.Background(), testEvent("t")) // fills the queue

	done := make(chan struct{})
	go func() {
		b.Publish(context.Background(), testEvent("t")) // must block until drained
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("blocking publish returned with full queue")
	case <-time.After(20 * time.Millisecond):
	}
	<-sub.Events()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocking publish did not resume after drain")
	}
}

func TestBrokerBlockPolicyCancellation(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(1), WithPolicy(Block))
	b.Publish(context.Background(), testEvent("t")) // fills the queue

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Publish(ctx, testEvent("t")) // blocks: subscriber is stuck
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blocking publish returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("canceled publish err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled publish still blocked")
	}
	if sub.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", sub.Dropped())
	}

	// A pre-canceled context refuses the publish outright.
	if _, err := b.Publish(ctx, testEvent("t")); err != context.Canceled {
		t.Errorf("pre-canceled publish err = %v", err)
	}
}

// TestBrokerBlockConcurrentPublisherCancellation pins that a second
// publisher waiting behind a stuck blocking send is freed by its own
// context, even though the first publisher (Background context) stays
// blocked.
func TestBrokerBlockConcurrentPublisherCancellation(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, _ := b.Subscribe(TopicFilter("t"), WithQueueSize(1), WithPolicy(Block))
	b.Publish(context.Background(), testEvent("t")) // fills the queue

	first := make(chan struct{})
	go func() {
		b.Publish(context.Background(), testEvent("t")) // sticks until drain
		close(first)
	}()
	time.Sleep(20 * time.Millisecond) // let the first publisher block

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := b.Publish(ctx, testEvent("t"))
		second <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-second:
		if err != context.Canceled {
			t.Errorf("second publisher err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second publisher not freed by its own context")
	}

	// Draining frees the first publisher; nothing deadlocked.
	<-sub.Events()
	select {
	case <-first:
	case <-time.After(2 * time.Second):
		t.Fatal("first publisher did not resume after drain")
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

func TestBrokerSequenceSubscription(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	b := NewBroker("b1", clock)
	defer b.Close()
	seq := eventalg.NewSequence(time.Minute,
		eventalg.MustParse(`topic = login`),
		eventalg.MustParse(`topic = buy`),
	)
	ss, err := b.SubscribeSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(context.Background(), testEvent("login"))
	clock.Advance(10 * time.Second)
	b.Publish(context.Background(), testEvent("buy"))
	select {
	case m := <-ss.Matches():
		if len(m.Tuples) != 2 {
			t.Errorf("match tuples = %d", len(m.Tuples))
		}
	default:
		t.Fatal("sequence did not complete")
	}
	ss.Cancel()
	ss.Cancel()
	if _, ok := <-ss.Matches(); ok {
		t.Error("Matches not closed after Cancel")
	}
}

func TestBrokerSequenceWindowExpiresAcrossPublishes(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	b := NewBroker("b1", clock)
	defer b.Close()
	seq := eventalg.NewSequence(time.Minute,
		eventalg.MustParse(`topic = login`),
		eventalg.MustParse(`topic = buy`),
	)
	ss, _ := b.SubscribeSequence(seq)
	b.Publish(context.Background(), testEvent("login"))
	clock.Advance(2 * time.Minute)
	b.Publish(context.Background(), testEvent("buy"))
	select {
	case <-ss.Matches():
		t.Fatal("expired chain completed")
	default:
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
	seq, _ := b.SubscribeSequence(eventalg.Sequence{})
	seq.Cancel()
	sub.Cancel()
	snap = b.Metrics().Snapshot()
	if snap["subscriptions"] != 0 {
		t.Errorf("subscriptions gauge after cancel = %v", snap["subscriptions"])
	}
	for _, name := range []string{"subscribes", "unsubscribes", "seq_subscribes", "seq_unsubscribes"} {
		if snap[name] != 1 {
			t.Errorf("%s = %v, want 1", name, snap[name])
		}
	}
}

func TestBrokerFilters(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	b.Subscribe(TopicFilter("a"))
	b.Subscribe(TopicFilter("a")) // duplicate filter
	b.Subscribe(TopicFilter("b"))
	fs := b.Filters()
	if len(fs) != 2 {
		t.Errorf("Filters() returned %d, want 2 distinct", len(fs))
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
				s, err := b.Subscribe(TopicFilter("t"), WithQueueSize(4))
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
// Publish, PublishBatch, Subscribe/Cancel, SubscribeSequence/Cancel and
// the read-side probes — so the race detector exercises the RWMutex fast
// path and the pooled match state under real contention.
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
			b.MatchCount(eventalg.Tuple{"topic": eventalg.String("t")})
			b.NumSubscriptions()
			b.Filters()
		}
	}()

	var churn sync.WaitGroup
	for s := 0; s < 4; s++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 150; i++ {
				sub, err := b.Subscribe(TopicFilter("t"), WithQueueSize(2))
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-sub.Events():
				default:
				}
				sub.Cancel()
				if i%10 == 0 {
					seq, err := b.SubscribeSequence(eventalg.NewSequence(time.Minute,
						eventalg.MustParse(`topic = t`),
						eventalg.MustParse(`topic = u`)))
					if err != nil {
						t.Error(err)
						return
					}
					seq.Cancel()
				}
			}
		}()
	}
	churn.Wait()
	close(stop)
	wg.Wait()
	if b.NumSubscriptions() != 0 {
		t.Errorf("NumSubscriptions = %d at end", b.NumSubscriptions())
	}
}

// TestBrokerPublishBatch checks the batched path delivers like N singles
// and assigns IDs/timestamps in place.
func TestBrokerPublishBatch(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	sub, err := b.Subscribe(TopicFilter("t"), WithQueueSize(8))
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

func TestBrokerMatchCount(t *testing.T) {
	b := NewBroker("b1", nil)
	defer b.Close()
	b.Subscribe(TopicFilter("t"))
	b.Subscribe(eventalg.NewFilter())
	got := b.MatchCount(eventalg.Tuple{"topic": eventalg.String("t")})
	if got != 2 {
		t.Errorf("MatchCount = %d, want 2", got)
	}
}
