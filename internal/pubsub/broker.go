package pubsub

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"reef/internal/eventalg"
	"reef/internal/metrics"
	"reef/internal/simclock"
)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("pubsub: broker closed")

// DeliveryPolicy selects what a broker does when a subscriber's queue is
// full.
type DeliveryPolicy int

// Delivery policies. Start at 1 so the zero value is invalid and defaults
// are explicit.
const (
	// DropNewest discards the incoming event (default): the subscriber
	// keeps the oldest undelivered events.
	DropNewest DeliveryPolicy = iota + 1
	// DropOldest evicts the oldest queued event to admit the new one.
	DropOldest
	// Block makes Publish wait until the subscriber drains or the publish
	// context is canceled. Use only when the subscriber is guaranteed to
	// consume promptly.
	Block
)

// DefaultQueueSize is the per-subscription delivery queue length used when
// no option overrides it.
const DefaultQueueSize = 64

// SubOption configures a subscription.
type SubOption func(*subConfig)

type subConfig struct {
	queueSize int
	policy    DeliveryPolicy
	handler   func(Event)
}

// WithQueueSize sets the delivery queue length (minimum 1).
func WithQueueSize(n int) SubOption {
	return func(c *subConfig) {
		if n > 0 {
			c.queueSize = n
		}
	}
}

// WithPolicy sets the overflow policy.
func WithPolicy(p DeliveryPolicy) SubOption {
	return func(c *subConfig) { c.policy = p }
}

// WithHandler makes the subscription deliver by calling fn instead of
// queueing: every matched event is handed to fn at match time, on the
// publisher's goroutine, and counts as delivered when fn returns. Such a
// subscription has no channel (Events returns nil), no queue size and no
// overflow policy. Calls to fn are serialized, and once Cancel has
// returned fn is never entered again — Cancel waits out a call in flight —
// so fn must not block, publish or cancel its own subscription. A nil fn
// leaves the subscription a queue.
func WithHandler(fn func(Event)) SubOption {
	return func(c *subConfig) { c.handler = fn }
}

// Subscription is a local content-based subscription: a filter plus
// either a bounded delivery queue or a handler (see WithHandler).
type Subscription struct {
	id      int64
	filter  eventalg.Filter
	ch      chan Event
	policy  DeliveryPolicy
	handler func(Event)
	broker  *Broker

	// onCancel, when set, runs after the subscription is removed from the
	// broker. The overlay uses it to withdraw propagated subscriptions.
	onCancel func()

	// sendMu (capacity 1) serializes Block-policy sends against each
	// other and against close, without holding mu across a blocking send
	// — so each waiting publisher stays interruptible by its own context.
	sendMu chan struct{}

	mu       sync.Mutex
	canceled bool
	dropped  int64
}

// ID returns the broker-local subscription ID.
func (s *Subscription) ID() int64 { return s.id }

// Filter returns the subscription's filter.
func (s *Subscription) Filter() eventalg.Filter { return s.filter }

// Events returns the delivery channel. It is closed when the subscription
// is canceled or the broker shuts down, and nil for a handler
// subscription.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were discarded due to queue overflow.
func (s *Subscription) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

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
	// overflowed: the queue was full (or a Block send's context ended) and
	// an event was lost to the overflow policy.
	overflowed
	// canceled: the subscription was canceled between match and delivery;
	// nobody is left to miss the event.
	canceled
)

// deliver hands one event to the handler, or enqueues it under the
// subscription's overflow policy. The handler runs under mu, which is what
// makes the canceled check and the call atomic with respect to close.
func (s *Subscription) deliver(ctx context.Context, ev Event) outcome {
	if s.policy == Block {
		return s.deliverBlocking(ctx, ev)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		return canceled
	}
	if s.handler != nil {
		s.handler(ev)
		return sent
	}
	switch s.policy {
	case DropOldest:
		for {
			select {
			case s.ch <- ev:
				return sent
			default:
				select {
				case <-s.ch:
					s.dropped++
				default:
				}
			}
		}
	default: // DropNewest
		select {
		case s.ch <- ev:
			return sent
		default:
			s.dropped++
			return overflowed
		}
	}
}

// deliverBlocking sends under the Block policy. A blocked send never
// holds mu, so each waiting publisher is bounded by its own context;
// sendMu keeps close from racing a blocked send (closing s.ch mid-send
// would panic). As before, Cancel waits for an in-flight blocked send to
// finish or be canceled.
func (s *Subscription) deliverBlocking(ctx context.Context, ev Event) outcome {
	drop := func() outcome {
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		return overflowed
	}
	select {
	case s.sendMu <- struct{}{}:
	case <-ctx.Done():
		return drop()
	}
	defer func() { <-s.sendMu }()
	s.mu.Lock()
	gone := s.canceled
	s.mu.Unlock()
	if gone {
		return canceled
	}
	select {
	case s.ch <- ev:
		return sent
	case <-ctx.Done():
		return drop()
	}
}

func (s *Subscription) close() {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return
	}
	s.canceled = true
	policy := s.policy
	s.mu.Unlock()
	if policy == Block {
		// Wait out any in-flight blocked send before closing the channel.
		s.sendMu <- struct{}{}
		defer func() { <-s.sendMu }()
	}
	if s.ch != nil {
		close(s.ch)
	}
}

// SequenceSubscription is a stateful multi-event subscription (paper §5.3,
// Cayuga-style). Completed sequences arrive on Matches.
type SequenceSubscription struct {
	id      int64
	seq     eventalg.Sequence
	matcher *eventalg.SequenceMatcher
	ch      chan eventalg.SequenceMatch
	broker  *Broker

	mu       sync.Mutex
	canceled bool
	dropped  int64
}

// Matches returns the channel of completed sequence instances.
func (s *SequenceSubscription) Matches() <-chan eventalg.SequenceMatch { return s.ch }

// Dropped reports discarded matches due to queue overflow.
func (s *SequenceSubscription) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Cancel removes the sequence subscription. Idempotent.
func (s *SequenceSubscription) Cancel() {
	s.broker.unsubscribeSequence(s)
}

func (s *SequenceSubscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.canceled {
		s.canceled = true
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
	seqs   map[int64]*SequenceSubscription
	reg    *metrics.Registry

	// Counters and the gauge, resolved once at construction so neither a
	// delivery nor a subscribe under the write lock pays the registry's
	// locked map lookup. dropped counts events lost to a full queue;
	// canceled counts deliveries skipped because the subscription was
	// canceled after the match.
	published       *metrics.Counter
	delivered       *metrics.Counter
	dropped         *metrics.Counter
	canceled        *metrics.Counter
	seqDelivered    *metrics.Counter
	seqDropped      *metrics.Counter
	subscribes      *metrics.Counter
	unsubscribes    *metrics.Counter
	seqSubscribes   *metrics.Counter
	seqUnsubscribes *metrics.Counter
	subscriptions   *metrics.Gauge
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
		seqs:  make(map[int64]*SequenceSubscription),
		reg:   metrics.NewRegistry(),
	}
	b.published = b.reg.Counter("published")
	b.delivered = b.reg.Counter("delivered")
	b.dropped = b.reg.Counter("dropped")
	b.canceled = b.reg.Counter("canceled")
	b.seqDelivered = b.reg.Counter("seq_delivered")
	b.seqDropped = b.reg.Counter("seq_dropped")
	b.subscribes = b.reg.Counter("subscribes")
	b.unsubscribes = b.reg.Counter("unsubscribes")
	b.seqSubscribes = b.reg.Counter("seq_subscribes")
	b.seqUnsubscribes = b.reg.Counter("seq_unsubscribes")
	b.subscriptions = b.reg.Gauge("subscriptions")
	return b
}

// publishScratch holds the per-publish match state so the steady-state
// publish path does not allocate. The ids buffer feeds MatchAppend; the
// targets/seqs slices are cleared before pooling so they do not pin
// canceled subscriptions. off carries per-event target offsets for
// PublishBatch (off[i]..off[i+1] index into targets).
type publishScratch struct {
	ids     []int64
	targets []*Subscription
	seqs    []*SequenceSubscription
	off     []int
}

var pubScratchPool = sync.Pool{New: func() any { return new(publishScratch) }}

func (ps *publishScratch) release() {
	ps.ids = ps.ids[:0]
	clear(ps.targets)
	ps.targets = ps.targets[:0]
	clear(ps.seqs)
	ps.seqs = ps.seqs[:0]
	ps.off = ps.off[:0]
	pubScratchPool.Put(ps)
}

// Name returns the broker's name.
func (b *Broker) Name() string { return b.name }

// Metrics exposes the broker's instrumentation registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// Subscribe registers a filter and returns the subscription handle.
func (b *Broker) Subscribe(f eventalg.Filter, opts ...SubOption) (*Subscription, error) {
	cfg := subConfig{queueSize: DefaultQueueSize, policy: DropNewest}
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
		sub.ch = make(chan Event, cfg.queueSize)
		sub.policy = cfg.policy
		sub.sendMu = make(chan struct{}, 1)
	}
	b.subs[id] = sub
	b.subscribes.Inc()
	b.subscriptions.Set(int64(len(b.subs)))
	return sub, nil
}

// SubscribeSequence registers a stateful sequence subscription.
func (b *Broker) SubscribeSequence(seq eventalg.Sequence, opts ...SubOption) (*SequenceSubscription, error) {
	cfg := subConfig{queueSize: DefaultQueueSize, policy: DropNewest}
	for _, o := range opts {
		o(&cfg)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	// Sequence IDs come from the same monotonic counter as filter IDs, so
	// allocation is O(1) and the two kinds share one namespace.
	id := b.index.ReserveID()
	sub := &SequenceSubscription{
		id:      id,
		seq:     seq,
		matcher: eventalg.NewSequenceMatcher(seq),
		ch:      make(chan eventalg.SequenceMatch, cfg.queueSize),
		broker:  b,
	}
	b.seqs[id] = sub
	b.seqSubscribes.Inc()
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

// Filters returns the distinct filters of all live local subscriptions.
func (b *Broker) Filters() []eventalg.Filter {
	b.mu.RLock()
	defer b.mu.RUnlock()
	seen := make(map[string]struct{}, len(b.subs))
	out := make([]eventalg.Filter, 0, len(b.subs))
	for _, s := range b.subs {
		key := s.filter.Canonical()
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, s.filter)
	}
	return out
}

func (b *Broker) unsubscribeSequence(s *SequenceSubscription) {
	b.mu.Lock()
	if _, ok := b.seqs[s.id]; ok {
		delete(b.seqs, s.id)
		b.seqUnsubscribes.Inc()
	}
	b.mu.Unlock()
	s.close()
}

// Publish assigns the event an ID and timestamp (if unset) and delivers it
// to every matching local subscriber. It returns the number of successful
// local deliveries. The context bounds blocking deliveries (Block policy):
// when it is canceled mid-publish, remaining deliveries are abandoned and
// ctx.Err() is returned alongside the count so far.
//
// Publish only read-locks the broker, so any number of publishers match
// concurrently; per-subscription delivery serializes on each
// subscription's own mutex.
func (b *Broker) Publish(ctx context.Context, ev Event) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if ev.ID == 0 {
		ev.ID = nextEventID()
	}
	if ev.Published.IsZero() {
		ev.Published = b.clock.Now()
	}

	ps := pubScratchPool.Get().(*publishScratch)
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		ps.release()
		return 0, ErrClosed
	}
	ps.ids = b.index.MatchAppend(ev.Attrs, ps.ids[:0])
	for _, id := range ps.ids {
		if s, ok := b.subs[id]; ok {
			ps.targets = append(ps.targets, s)
		}
	}
	for _, s := range b.seqs {
		ps.seqs = append(ps.seqs, s)
	}
	b.mu.RUnlock()
	b.published.Inc()

	delivered := 0
	for _, s := range ps.targets {
		if b.deliver(ctx, s, ev) {
			delivered++
		}
		if err := ctx.Err(); err != nil {
			ps.release()
			return delivered, err
		}
	}
	for _, s := range ps.seqs {
		b.feedSequence(s, ev)
	}
	ps.release()
	return delivered, nil
}

// PublishBatch publishes a batch of events, amortizing lock acquisition
// and index probes across the batch: all events are matched under a single
// read lock, then delivered outside it. Missing IDs and timestamps are
// assigned in place, so the caller's slice carries them afterward. It
// returns the total number of successful local deliveries; a canceled
// context abandons the remaining deliveries and returns the count so far
// with ctx.Err(), exactly like Publish.
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
		ps.ids = b.index.MatchAppend(evs[i].Attrs, ps.ids[:0])
		for _, id := range ps.ids {
			if s, ok := b.subs[id]; ok {
				ps.targets = append(ps.targets, s)
			}
		}
		ps.off = append(ps.off, len(ps.targets))
	}
	for _, s := range b.seqs {
		ps.seqs = append(ps.seqs, s)
	}
	b.mu.RUnlock()
	b.published.Add(int64(len(evs)))

	delivered := 0
	for i := range evs {
		for _, s := range ps.targets[ps.off[i]:ps.off[i+1]] {
			if b.deliver(ctx, s, evs[i]) {
				delivered++
				if counts != nil {
					counts[i]++
				}
			}
			if err := ctx.Err(); err != nil {
				ps.release()
				return delivered, err
			}
		}
		for _, s := range ps.seqs {
			b.feedSequence(s, evs[i])
		}
	}
	ps.release()
	return delivered, nil
}

// deliver hands one matched event to one subscription and counts what
// became of it; it reports whether the event reached the queue or handler.
func (b *Broker) deliver(ctx context.Context, s *Subscription, ev Event) bool {
	switch s.deliver(ctx, ev) {
	case sent:
		b.delivered.Inc()
		return true
	case overflowed:
		b.dropped.Inc()
	case canceled:
		b.canceled.Inc()
	}
	return false
}

// feedSequence advances one sequence matcher with the event. Matcher state
// is guarded by the subscription's own mutex so concurrent Publish calls
// serialize per sequence, not per broker.
func (b *Broker) feedSequence(s *SequenceSubscription, ev Event) {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return
	}
	matches := s.matcher.Feed(ev.Published, ev.Attrs)
	var droppedNow int
	for _, m := range matches {
		select {
		case s.ch <- m:
		default:
			s.dropped++
			droppedNow++
		}
	}
	s.mu.Unlock()
	if droppedNow > 0 {
		b.seqDropped.Add(int64(droppedNow))
	}
	if n := len(matches) - droppedNow; n > 0 {
		b.seqDelivered.Add(int64(n))
	}
}

// MatchCount returns how many local subscriptions the tuple would match,
// without delivering anything. Used by experiments to probe routing tables.
func (b *Broker) MatchCount(t eventalg.Tuple) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.index.Match(t))
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
	subs := make([]*Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	seqs := make([]*SequenceSubscription, 0, len(b.seqs))
	for _, s := range b.seqs {
		seqs = append(seqs, s)
	}
	b.subs = map[int64]*Subscription{}
	b.seqs = map[int64]*SequenceSubscription{}
	b.mu.Unlock()

	for _, s := range subs {
		s.close()
	}
	for _, s := range seqs {
		s.close()
	}
}

// NewEvent is a convenience constructor used throughout the examples.
func NewEvent(source string, attrs eventalg.Tuple, payload []byte) Event {
	return Event{Attrs: attrs, Payload: payload, Source: source}
}

// FormatEventKey renders a stable dedup key for an event (source + id).
// It sits on the dedup path of every propagated event, so it builds the
// key with strconv appends in one allocation instead of fmt.Sprintf.
func FormatEventKey(ev Event) string {
	buf := make([]byte, 0, len(ev.Source)+2+2*20)
	buf = append(buf, ev.Source...)
	buf = append(buf, '#')
	buf = strconv.AppendUint(buf, ev.ID, 10)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, ev.Published.UnixNano(), 10)
	return string(buf)
}
