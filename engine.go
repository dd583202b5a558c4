package reef

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/frontend"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/simclock"
	"reef/internal/waif"
)

// clickPolicy is what a shard does differently in the two deployments —
// the paper's Figure 1 analyzes clicks on a server, Figure 2 on the
// user's host. Everything else about a shard is the engine's, except
// replay: the router decodes every record itself and applies the server
// policy's clicks and flags bare (router.replayClickStore).
type clickPolicy interface {
	// ingest analyzes a validated batch of clicks by this shard's users
	// and reports how many it analyzed.
	ingest(ctx context.Context, e *engine, clicks []Click) (int, error)
	// newFrontend builds a user's frontend, and whatever per-user state
	// the policy keeps beside it. Called once per user, under e.mu.
	newFrontend(user string, sub frontend.Subscriber, proxy frontend.FeedProxy) *frontend.Frontend
	// applied is told of every recommendation the shard applied.
	applied(user string, rec recommend.Recommendation)
	// reject feeds a rejected feed recommendation back to the recommender.
	reject(user, feedURL string, at time.Time)
	// ready drains the recommendations generated for user since the last
	// call, for the pending ledger.
	ready(user string) []recommend.Recommendation
	// capture adds what the policy journals itself to a snapshot.
	capture(st *durable.State)
	// samples appends the policy's series to the shard's.
	samples(e *engine, out []metrics.Sample) []metrics.Sample
}

// engine is one shard of a deployment: a complete per-user-partition
// state machine — click policy, edge broker, WAIF proxy, hosted
// frontends and sidebars, reliable delivery queues and
// pending-recommendation ledger. The router owns N of these and
// addresses each user's state to exactly one of them; the engine itself
// knows nothing about its siblings, so its lock domains (broker RWMutex,
// frontend map) never contend across shards. All of a node's engines
// record through the router's one journal. The engine is the only place
// that journals a subscription, and apply is the only place one is
// applied.
type engine struct {
	cfg        config
	policy     clickPolicy
	broker     *pubsub.Broker
	proxy      *waif.Proxy
	clock      simclock.Clock
	pending    *pendingSet
	journal    *durable.Journal
	deliveries *delivery.Set

	mu     sync.Mutex
	closed bool
	fronts map[string]*frontend.Frontend
}

// newEngine builds one shard over the node's already-open journal. The
// journal is still disarmed; the router recovers (or imports) and then
// arms it.
func newEngine(cfg config, idx int, journal *durable.Journal, policy clickPolicy) *engine {
	e := &engine{
		cfg:        cfg,
		policy:     policy,
		clock:      cfg.clock,
		journal:    journal,
		broker:     pubsub.NewBroker(fmt.Sprintf("reef-edge-%d", idx), cfg.clock),
		pending:    newPendingSet(),
		deliveries: delivery.NewSet(),
		fronts:     make(map[string]*frontend.Frontend),
	}
	publisher := cfg.feedPublisher
	if publisher == nil {
		publisher = brokerPublisher{e.broker}
	}
	e.proxy = waif.New(waif.Config{
		Fetcher:   cfg.fetcher,
		Publish:   publisher,
		PollEvery: cfg.pollEvery,
	})
	return e
}

// restoreCursor restores one subscription's cumulative cursor on
// replay. The retained window is not durable, so a recovered cursor for
// a queue the log never re-registered (possible only in a corrupt log)
// is ignored rather than fatal.
func (e *engine) restoreCursor(user, id string, seq int64) {
	if q, ok := e.deliveries.Get(user, id); ok {
		q.RestoreAcked(seq)
	}
}

// capture appends the shard's durable state to st. The router calls it
// for every shard with the journal lock held (see router.captureState),
// so no mutation is in flight.
func (e *engine) capture(st *durable.State) {
	e.policy.capture(st)
	e.mu.Lock()
	users := make([]string, 0, len(e.fronts))
	for u := range e.fronts {
		users = append(users, u)
	}
	sort.Strings(users)
	fronts := make([]*frontend.Frontend, len(users))
	for i, u := range users {
		fronts[i] = e.fronts[u]
	}
	e.mu.Unlock()
	for i, fe := range fronts {
		for _, rec := range fe.Active() {
			ds := toDurableSub(users[i], rec)
			if q, ok := e.deliveries.Get(users[i], subscriptionID(rec)); ok {
				// The snapshot stores the effective (default-resolved)
				// delivery config, so replaying it re-registers an
				// identical queue and re-snapshots byte-identically.
				qc := q.Config()
				ds.Delivery = deliveryState(qc.AckTimeout, qc.MaxAttempts)
			}
			st.Subscriptions = append(st.Subscriptions, ds)
		}
	}
	pending, seq := e.pending.dump()
	st.Pending = append(st.Pending, pending...)
	st.PendingSeq = max(st.PendingSeq, seq)
	for _, cu := range e.deliveries.Cursors() {
		st.Cursors = append(st.Cursors, durable.CursorState{User: cu.User, ID: cu.ID, Acked: cu.Acked})
	}
}

// front returns (creating on first use) the hosted frontend for a user,
// or ErrClosed once the shard is torn down — a creation racing Close
// would wire a frontend to the already-closed broker and leak it past
// the teardown snapshot.
func (e *engine) front(user string) (*frontend.Frontend, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if fe, ok := e.fronts[user]; ok {
		return fe, nil
	}
	var sub frontend.Subscriber = e.broker
	if e.cfg.subscriberFor != nil {
		sub = e.cfg.subscriberFor(user)
	}
	fe := e.policy.newFrontend(user, sub, e.proxy)
	e.fronts[user] = fe
	return fe, nil
}

// lookup returns the user's frontend without creating one.
func (e *engine) lookup(user string) (*frontend.Frontend, bool) {
	e.mu.Lock()
	fe, ok := e.fronts[user]
	e.mu.Unlock()
	return fe, ok
}

// apply executes a recommendation through the user's hosted frontend. It
// does not journal: live callers wrap it in the record that describes
// it, replay runs it bare. When the subscription has a reliable queue
// (registered before this call, live and on replay alike), the queue's
// Append rides along as the frontend's tap: the publisher retains the
// event itself, ahead of the sidebar, so a publish that returned is in
// the queue. A duplicate of a best-effort subscription gets the tap
// attached here; an unsubscribe drops the queue.
func (e *engine) apply(user string, rec recommend.Recommendation) error {
	fe, err := e.front(user)
	if err != nil {
		return err
	}
	id := subscriptionID(rec)
	unsubscribe := rec.Kind == recommend.KindUnsubscribeFeed
	var tap func(pubsub.Event)
	if q, ok := e.deliveries.Get(user, id); ok && !unsubscribe {
		tap = func(ev pubsub.Event) { q.Append(ev, e.clock.Now()) }
	}
	if err := fe.ApplyTapped(rec, tap); err != nil {
		return err
	}
	if unsubscribe {
		e.deliveries.Remove(user, id)
	}
	e.policy.applied(user, rec)
	return nil
}

// commit applies rec under the journal, logged as the subscribe or
// unsubscribe record its kind calls for. An AtLeastOnce config first
// registers the subscription's reliable queue — before the frontend
// applies the subscription, so no event the new subscription matches can
// slip past the queue.
func (e *engine) commit(user string, rec recommend.Recommendation, sc SubscribeConfig) error {
	record := durable.SubscribeRecord
	var dl *durable.DeliveryState
	switch {
	case rec.Kind == recommend.KindUnsubscribeFeed:
		record = durable.UnsubscribeRecord
	case sc.Guarantee == AtLeastOnce:
		dl = deliveryState(sc.AckTimeout, sc.MaxAttempts)
	}
	return e.journal.Record(
		func() error {
			if dl == nil {
				return e.apply(user, rec)
			}
			id := subscriptionID(rec)
			_, existed := e.deliveries.Get(user, id)
			e.deliveries.Register(user, id, deliveryConfig(*dl, e.cfg))
			err := e.apply(user, rec)
			if err != nil && !existed {
				e.deliveries.Remove(user, id)
			}
			return err
		},
		func() durable.Record {
			ds := toDurableSub(user, rec)
			ds.Delivery = dl
			return record(ds)
		},
	)
}

// subscription renders a live subscription in its public form, with its
// reliable queue's state when it has one.
func (e *engine) subscription(user string, rec recommend.Recommendation) Subscription {
	sub := toPublicSubscription(user, rec)
	if q, ok := e.deliveries.Get(user, sub.ID); ok {
		sub.Guarantee = AtLeastOnce.String()
		sub.Acked = q.Acked()
	}
	return sub
}

// subscriptions lists a user's live subscriptions.
func (e *engine) subscriptions(user string) []Subscription {
	active := e.activeRecs(user)
	out := make([]Subscription, 0, len(active))
	for _, rec := range active {
		out = append(out, e.subscription(user, rec))
	}
	return out
}

// subscribe places a feed subscription immediately, bypassing the
// recommendation queue.
func (e *engine) subscribe(user, feedURL string, sc SubscribeConfig) (Subscription, error) {
	rec := recommend.Recommendation{
		Kind:    recommend.KindSubscribeFeed,
		User:    user,
		FeedURL: feedURL,
		Filter:  waif.ItemFilter(feedURL),
		Reason:  "direct API subscription",
		At:      e.clock.Now(),
	}
	if err := e.commit(user, rec, sc); err != nil {
		return Subscription{}, err
	}
	return e.subscription(user, rec), nil
}

// unsubscribe removes a feed subscription.
func (e *engine) unsubscribe(user, feedURL string) error {
	fe, ok := e.lookup(user)
	if !ok {
		return fmt.Errorf("%w: user %q has no subscriptions", ErrNotFound, user)
	}
	found := false
	for _, rec := range fe.Active() {
		if rec.FeedURL == feedURL {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: no subscription for feed %q", ErrNotFound, feedURL)
	}
	return e.commit(user, recommend.Recommendation{
		Kind:    recommend.KindUnsubscribeFeed,
		User:    user,
		FeedURL: feedURL,
		Reason:  "direct API unsubscription",
		At:      e.clock.Now(),
	}, SubscribeConfig{})
}

// deliveryQueue resolves a reliable subscription's queue, with the
// errors the public surface promises: ErrNotFound for an unknown
// subscription, a *ConfigError for one that exists but is best-effort.
func (e *engine) deliveryQueue(user, id string) (*delivery.Queue, error) {
	if q, ok := e.deliveries.Get(user, id); ok {
		return q, nil
	}
	for _, rec := range e.activeRecs(user) {
		if subscriptionID(rec) == id {
			return nil, &ConfigError{
				Field:  "guarantee",
				Value:  BestEffort.String(),
				Reason: fmt.Sprintf("subscription %q is best-effort; acks and reliable fetches apply only to the at-least-once tier", id),
				Help:   "re-subscribe with WithGuarantee(AtLeastOnce)",
			}
		}
	}
	return nil, fmt.Errorf("%w: no subscription %q for user %q", ErrNotFound, id, user)
}

// activeRecs lists the recommendations behind a user's live
// subscriptions (empty when the shard hosts no frontend for the user).
func (e *engine) activeRecs(user string) []recommend.Recommendation {
	fe, ok := e.lookup(user)
	if !ok {
		return nil
	}
	return fe.Active()
}

// wrapSeqErr maps the delivery layer's out-of-range sequence error onto
// the public invalid-argument sentinel.
func wrapSeqErr(err error) error {
	if errors.Is(err, delivery.ErrSeqBeyondDelivered) {
		return fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	return err
}

// fetchEvents leases retained events of one reliable subscription.
func (e *engine) fetchEvents(user, id string, max int) ([]DeliveredEvent, error) {
	q, err := e.deliveryQueue(user, id)
	if err != nil {
		return nil, err
	}
	return toPublicDelivered(q.Fetch(max, e.clock.Now())), nil
}

// deliveredScratch pools the internal lease buffer fetchEventsInto
// drains the queue through, so a steady-state push loop allocates only
// the public events it appends into the caller's buffer.
var deliveredScratch = sync.Pool{New: func() any { return new([]delivery.Delivered) }}

// fetchEventsInto is fetchEvents appending into dst: the queue leases
// into a pooled scratch buffer and the public conversion appends onto
// the caller's (reused) slice.
func (e *engine) fetchEventsInto(user, id string, dst []DeliveredEvent, max int) ([]DeliveredEvent, error) {
	sp := deliveredScratch.Get().(*[]delivery.Delivered)
	ds, err := e.fetchDelivered(user, id, (*sp)[:0], max)
	for _, d := range ds {
		dst = append(dst, DeliveredEvent{Seq: d.Seq, Attempts: d.Attempts, Event: fromPubsubEvent(d.Event)})
	}
	clear(ds)
	*sp = ds[:0]
	deliveredScratch.Put(sp)
	return dst, err
}

// fetchDelivered leases retained events of one reliable subscription in
// their internal form, appended to dst.
func (e *engine) fetchDelivered(user, id string, dst []delivery.Delivered, max int) ([]delivery.Delivered, error) {
	q, err := e.deliveryQueue(user, id)
	if err != nil {
		return dst, err
	}
	return q.FetchInto(dst, max, e.clock.Now()), nil
}

// notifyEvents registers ch on a reliable subscription's append hook,
// with the same resolution errors as fetchEvents.
func (e *engine) notifyEvents(user, id string, ch chan<- struct{}) (func(), error) {
	q, err := e.deliveryQueue(user, id)
	if err != nil {
		return nil, err
	}
	return q.Notify(ch), nil
}

// ack advances (or nacks against) a reliable subscription's cursor. Acks
// are durable: the cursor advance and its WAL record commit under the
// journal lock like every other mutation. Nacks only reshape in-memory
// redelivery timing and are not journaled.
func (e *engine) ack(user, id string, seq int64, nack bool) error {
	q, err := e.deliveryQueue(user, id)
	if err != nil {
		return err
	}
	now := e.clock.Now()
	if nack {
		return wrapSeqErr(q.Nack(seq, now))
	}
	return e.journal.Record(
		func() error { return wrapSeqErr(q.Ack(seq, now)) },
		func() durable.Record {
			return durable.CursorAckRecord(durable.CursorAckPayload{User: user, ID: id, Seq: seq, At: now})
		},
	)
}

// deadLetters lists (or drains) dead-lettered events. An empty id
// aggregates every reliable subscription of the user, in sorted
// subscription order.
func (e *engine) deadLetters(user, id string, drain bool) ([]DeadLetter, error) {
	if id != "" {
		q, err := e.deliveryQueue(user, id)
		if err != nil {
			return nil, err
		}
		if drain {
			return toPublicDeadLetters(q.Drain()), nil
		}
		return toPublicDeadLetters(q.DeadLetters()), nil
	}
	queues := e.deliveries.User(user)
	ids := make([]string, 0, len(queues))
	for qid := range queues {
		ids = append(ids, qid)
	}
	sort.Strings(ids)
	out := []DeadLetter{}
	for _, qid := range ids {
		if drain {
			out = append(out, toPublicDeadLetters(queues[qid].Drain())...)
		} else {
			out = append(out, toPublicDeadLetters(queues[qid].DeadLetters())...)
		}
	}
	return out, nil
}

// addPending journals one recommendation into the shard's pending
// ledger.
func (e *engine) addPending(user string, rec recommend.Recommendation) error {
	var id string
	var seq int64
	return e.journal.Record(
		func() error { id, seq = e.pending.add(user, rec); return nil },
		func() durable.Record {
			return durable.PendingAddRecord(durable.PendingAddPayload{
				User: user, ID: id, Seq: seq, Rec: toDurableRec(rec),
			})
		},
	)
}

// recommendations drains the user's ready recommendations into the
// shard's pending ledger and lists the user's queue.
func (e *engine) recommendations(user string) ([]Recommendation, error) {
	// The drain is destructive, so a journaling failure must not abort the
	// loop: every drained recommendation still reaches the in-memory
	// ledger (only its durability is lost), and the first error is
	// reported after.
	var firstErr error
	for _, rec := range e.policy.ready(user) {
		if err := e.addPending(user, rec); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return e.pending.list(user), nil
}

// acceptRecommendation executes one pending recommendation.
func (e *engine) acceptRecommendation(user, id string) error {
	return e.journal.Record(
		func() error {
			rec, ok := e.pending.take(user, id)
			if !ok {
				return fmt.Errorf("%w: no pending recommendation %q for user %q", ErrNotFound, id, user)
			}
			return e.apply(user, rec)
		},
		func() durable.Record {
			return durable.PendingTakeRecord(durable.PendingTakePayload{
				User: user, ID: id, Accepted: true, At: e.clock.Now(),
			})
		},
	)
}

// rejectRecommendation discards one pending recommendation, feeding
// negative signal back to the recommender.
func (e *engine) rejectRecommendation(user, id string) error {
	at := e.clock.Now()
	return e.journal.Record(
		func() error {
			rec, ok := e.pending.take(user, id)
			if !ok {
				return fmt.Errorf("%w: no pending recommendation %q for user %q", ErrNotFound, id, user)
			}
			if rec.FeedURL != "" {
				e.policy.reject(user, rec.FeedURL, at)
			}
			return nil
		},
		func() durable.Record {
			return durable.PendingTakeRecord(durable.PendingTakePayload{
				User: user, ID: id, Accepted: false, At: at,
			})
		},
	)
}

// samples reports this shard's series: the proxy, the pending ledger
// and the broker, plus the policy's own, each under its Def from the
// shared constant table (internal/metrics).
func (e *engine) samples() []metrics.Sample {
	out := []metrics.Sample{
		{Def: metrics.ProxyFeeds, Value: float64(e.proxy.NumFeeds())},
		{Def: metrics.PendingRecommendations, Value: float64(e.pending.size())},
	}
	out = metrics.AppendRegistry(out, e.broker.Metrics(), "broker_")
	return e.policy.samples(e, out)
}

// teardown closes frontends, proxy and broker (but not the journal — the
// caller picks Close vs Crash for that). The closed flag is flipped
// under the same lock front creates under, so no frontend can be born
// after the snapshot below and escape its Close.
func (e *engine) teardown() {
	e.mu.Lock()
	e.closed = true
	fronts := make([]*frontend.Frontend, 0, len(e.fronts))
	for _, fe := range e.fronts {
		fronts = append(fronts, fe)
	}
	e.mu.Unlock()
	for _, fe := range fronts {
		fe.Close()
	}
	e.proxy.Close()
	e.broker.Close()
}

// sidebar returns the user's sidebar if this shard hosts one.
func (e *engine) sidebar(user string) (*frontend.Sidebar, bool) {
	fe, ok := e.lookup(user)
	if !ok {
		return nil, false
	}
	return fe.Sidebar(), true
}
