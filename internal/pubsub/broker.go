package pubsub

import (
	"context"
	"errors"
	"sync"

	"reef/internal/eventalg"
	"reef/internal/metrics"
	"reef/internal/simclock"
)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("pubsub: broker closed")

// DefaultQueueSize is the length of a queue subscription's channel.
const DefaultQueueSize = 64

// SubOption configures a subscription.
type SubOption func(*subConfig)

type subConfig struct {
	handler func(Event)
}

// WithHandler makes the subscription deliver by calling fn instead of
// queueing: every matched event is handed to fn at match time, on the
// publisher's goroutine, and counts as delivered when fn returns. Such a
// subscription has no channel (Events returns nil). Calls to fn are
// serialized, and once Cancel has returned fn is never entered again —
// Cancel waits out a call in flight — so fn must not block, publish or
// cancel its own subscription. A nil fn leaves the subscription a queue.
func WithHandler(fn func(Event)) SubOption {
	return func(c *subConfig) { c.handler = fn }
}

// Subscription is a local content-based subscription: a filter plus
// either a handler (see WithHandler) or a queue, a channel of
// DefaultQueueSize that drops the newest event when full.
type Subscription struct {
	id      int64
	filter  eventalg.Filter
	ch      chan Event
	handler func(Event)
	broker  *Broker

	// onCancel, when set, runs after the subscription is removed from the
	// broker. The overlay uses it to withdraw propagated subscriptions.
	onCancel func()

	mu       sync.Mutex
	canceled bool
}

// ID returns the broker-local subscription ID.
func (s *Subscription) ID() int64 { return s.id }

// Filter returns the subscription's filter.
func (s *Subscription) Filter() eventalg.Filter { return s.filter }

// Events returns the delivery channel. It is closed when the subscription
// is canceled or the broker shuts down, and nil for a handler
// subscription.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Cancel removes the subscription from its broker and closes the delivery
// channel. Cancel is idempotent.
func (s *Subscription) Cancel() {
	s.broker.unsubscribe(s)
}

// outcome is what became of one matched event at one subscription.
type outcome int

const (
	// sent: the event is in the subscription's queue, or its handler
	// returned.
	sent outcome = iota
	// overflowed: the queue was full and the event was dropped.
	overflowed
	// canceled: the subscription was canceled between match and delivery;
	// nobody is left to miss the event.
	canceled
)

// deliver hands one event to the handler, or enqueues it unless the queue
// is full. Both run under mu, which is what makes the canceled check and
// the call or send atomic with respect to close.
func (s *Subscription) deliver(ev Event) outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		return canceled
	}
	if s.handler != nil {
		s.handler(ev)
		return sent
	}
	select {
	case s.ch <- ev:
		return sent
	default:
		return overflowed
	}
}

func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		return
	}
	s.canceled = true
	if s.ch != nil {
		close(s.ch)
	}
}

// Broker is a single content-based matching engine with local subscribers.
// It is safe for concurrent use. The subscription table is guarded by a
// read-write lock: Publish/PublishBatch only take the read side, so
// concurrent publishers match in parallel; Subscribe/Cancel/Close take the
// write side, which also gives the Index the writer exclusivity it needs.
type Broker struct {
	name  string
	clock simclock.Clock

	mu     sync.RWMutex
	closed bool
	index  *Index
	subs   map[int64]*Subscription
	reg    *metrics.Registry

	// Counters and the gauge, resolved once at construction so neither a
	// delivery nor a subscribe under the write lock pays the registry's
	// locked map lookup. delivered is added once per publish call;
	// dropped counts events lost to a full queue; canceled counts
	// deliveries skipped because the subscription was canceled after the
	// match.
	published     *metrics.Counter
	delivered     *metrics.Counter
	dropped       *metrics.Counter
	canceled      *metrics.Counter
	subscribes    *metrics.Counter
	unsubscribes  *metrics.Counter
	subscriptions *metrics.Gauge
}

// NewBroker creates a broker. A nil clock defaults to the real clock.
func NewBroker(name string, clock simclock.Clock) *Broker {
	if clock == nil {
		clock = simclock.Real{}
	}
	b := &Broker{
		name:  name,
		clock: clock,
		index: NewIndex(),
		subs:  make(map[int64]*Subscription),
		reg:   metrics.NewRegistry(),
	}
	b.published = b.reg.Counter("published")
	b.delivered = b.reg.Counter("delivered")
	b.dropped = b.reg.Counter("dropped")
	b.canceled = b.reg.Counter("canceled")
	b.subscribes = b.reg.Counter("subscribes")
	b.unsubscribes = b.reg.Counter("unsubscribes")
	b.subscriptions = b.reg.Gauge("subscriptions")
	return b
}

// publishScratch holds the per-publish match state so the steady-state
// publish path does not allocate. The ids buffer feeds MatchAppend; the
// targets slice is cleared before pooling so it does not pin canceled
// subscriptions. off carries per-event target offsets (off[i]..off[i+1]
// index into targets).
type publishScratch struct {
	ids     []int64
	targets []*Subscription
	off     []int
}

var pubScratchPool = sync.Pool{New: func() any { return new(publishScratch) }}

func (ps *publishScratch) release() {
	ps.ids = ps.ids[:0]
	clear(ps.targets)
	ps.targets = ps.targets[:0]
	ps.off = ps.off[:0]
	pubScratchPool.Put(ps)
}

// Name returns the broker's name.
func (b *Broker) Name() string { return b.name }

// Metrics exposes the broker's instrumentation registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// Subscribe registers a filter and returns the subscription handle.
func (b *Broker) Subscribe(f eventalg.Filter, opts ...SubOption) (*Subscription, error) {
	var cfg subConfig
	for _, o := range opts {
		o(&cfg)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	id := b.index.Add(f)
	sub := &Subscription{id: id, filter: f, broker: b, handler: cfg.handler}
	if sub.handler == nil {
		sub.ch = make(chan Event, DefaultQueueSize)
	}
	b.subs[id] = sub
	b.subscribes.Inc()
	b.subscriptions.Set(int64(len(b.subs)))
	return sub, nil
}

func (b *Broker) unsubscribe(s *Subscription) {
	b.mu.Lock()
	_, present := b.subs[s.id]
	if present {
		delete(b.subs, s.id)
		b.index.Remove(s.id)
		b.unsubscribes.Inc()
		b.subscriptions.Set(int64(len(b.subs)))
	}
	b.mu.Unlock()
	s.close()
	if present && s.onCancel != nil {
		s.onCancel()
	}
}

// Publish is PublishBatch of the one event.
func (b *Broker) Publish(ctx context.Context, ev Event) (int, error) {
	return b.PublishBatchCounts(ctx, []Event{ev}, nil)
}

// PublishBatch assigns each event an ID and timestamp (if unset), in
// place, so the caller's slice carries them afterward, and delivers it to
// every matching local subscriber. All events are matched under a single
// read lock, then delivered in order outside it; any number of publishers
// match concurrently, and per-subscription delivery serializes on each
// subscription's own mutex. It returns the total number of successful
// local deliveries. The context is checked after every delivery: once it
// is canceled, the remaining deliveries are abandoned and ctx.Err() is
// returned alongside the count so far.
func (b *Broker) PublishBatch(ctx context.Context, evs []Event) (int, error) {
	return b.PublishBatchCounts(ctx, evs, nil)
}

// PublishBatchCounts is PublishBatch with per-event delivery attribution:
// when counts is non-nil it must have len(evs) entries, and counts[i] is
// incremented once per successful delivery of evs[i]. Stream servers use
// this to ack each pipelined frame with its exact delivered count even
// after coalescing frames into one batch publish.
func (b *Broker) PublishBatchCounts(ctx context.Context, evs []Event, counts []int) (int, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for i := range evs {
		if evs[i].ID == 0 {
			evs[i].ID = nextEventID()
		}
		if evs[i].Published.IsZero() {
			evs[i].Published = b.clock.Now()
		}
	}

	ps := pubScratchPool.Get().(*publishScratch)
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		ps.release()
		return 0, ErrClosed
	}
	ps.off = append(ps.off, 0)
	for i := range evs {
		ps.ids = b.index.MatchAttrs(evs[i].Attrs, ps.ids[:0])
		for _, id := range ps.ids {
			if s, ok := b.subs[id]; ok {
				ps.targets = append(ps.targets, s)
			}
		}
		ps.off = append(ps.off, len(ps.targets))
	}
	b.mu.RUnlock()
	b.published.Add(int64(len(evs)))

	delivered := 0
	for i := range evs {
		for _, s := range ps.targets[ps.off[i]:ps.off[i+1]] {
			if b.deliver(s, evs[i]) {
				delivered++
				if counts != nil {
					counts[i]++
				}
			}
			if err := ctx.Err(); err != nil {
				ps.release()
				b.delivered.Add(int64(delivered))
				return delivered, err
			}
		}
	}
	ps.release()
	b.delivered.Add(int64(delivered))
	return delivered, nil
}

// deliver hands one matched event to one subscription and reports whether
// it reached the queue or handler; the caller counts that as delivered,
// deliver counts the other outcomes.
func (b *Broker) deliver(s *Subscription, ev Event) bool {
	switch s.deliver(ev) {
	case sent:
		return true
	case overflowed:
		b.dropped.Inc()
	case canceled:
		b.canceled.Inc()
	}
	return false
}

// NumSubscriptions returns the number of live local subscriptions.
func (b *Broker) NumSubscriptions() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// Close shuts the broker down, canceling every subscription. Idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = map[int64]*Subscription{}
	b.mu.Unlock()

	for _, s := range subs {
		s.close()
	}
}

// NewEvent is a convenience constructor used throughout the examples; it
// converts the tuple to the event's sorted pairs once.
func NewEvent(source string, attrs eventalg.Tuple, payload []byte) Event {
	return Event{Attrs: attrs.Attrs(), Payload: payload, Source: source}
}
