package reef

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"reef/internal/core"
	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/frontend"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/simclock"
	"reef/internal/store"
	"reef/internal/waif"
)

// engine is one shard of the centralized deployment: a complete
// per-user-partition state machine — core server (click store, crawler,
// recommenders), edge broker, WAIF proxy, hosted frontends/sidebars,
// pending-recommendation ledger and journal. The Centralized router owns
// N of these and addresses each user's state to exactly one of them; the
// engine itself knows nothing about its siblings, so its lock domains
// (broker RWMutex, journal mutex, frontend map) never contend across
// shards.
type engine struct {
	idx        int
	cfg        config
	server     *core.Server
	broker     *pubsub.Broker
	proxy      *waif.Proxy
	clock      simclock.Clock
	pending    *pendingSet
	journal    *durable.Journal
	deliveries *delivery.Set

	mu     sync.Mutex
	closed bool
	fronts map[string]*frontend.Frontend
	bars   map[string]*frontend.Sidebar
}

// newEngine builds one shard over an already-open journal. The journal
// is still disarmed; the caller recovers (directly or through the
// migration replay) and then arms it.
func newEngine(cfg config, idx int, journal *durable.Journal) *engine {
	e := &engine{
		idx:     idx,
		cfg:     cfg,
		clock:   cfg.clock,
		journal: journal,
		server: core.NewServer(core.ServerConfig{
			Fetcher:      cfg.fetcher,
			Store:        cfg.clickStore,
			CrawlWorkers: cfg.crawlWorkers,
			Topic: recommend.TopicConfig{
				MinHostVisits: cfg.topic.MinHostVisits,
				InactiveAfter: cfg.topic.InactiveAfter,
				MinScore:      cfg.topic.MinScore,
			},
			Content: recommend.ContentConfig{NumTerms: cfg.content.NumTerms},
			Journal: journal,
		}),
		broker:     pubsub.NewBroker(fmt.Sprintf("reef-edge-%d", idx), cfg.clock),
		pending:    newPendingSet(),
		deliveries: delivery.NewSet(),
		fronts:     make(map[string]*frontend.Frontend),
		bars:       make(map[string]*frontend.Sidebar),
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

// replay returns the hooks that re-drive this shard's recovery stream:
// clicks re-enter core ingestion so derived state rebuilds exactly as
// live ingestion built it, and pending ops land in the shard's ledger.
func (e *engine) replay() durableReplay {
	apply := func(rec recommend.Recommendation) error { return e.apply(rec.User, rec) }
	return durableReplay{
		applyClicks: e.server.ReceiveClicks,
		setFlag:     func(host string, f int) { e.server.Store().SetFlag(host, store.Flag(f)) },
		applySub:    apply,
		restorePending: func(user, id string, seq int64, rec recommend.Recommendation) {
			e.pending.restore(user, id, seq, rec)
		},
		setPendingSeq: e.pending.setSeq,
		takePending:   e.pending.take,
		acceptRec:     func(user string, rec recommend.Recommendation) error { return apply(rec) },
		rejectFeedback: func(user, feedURL string, at time.Time) {
			e.server.ObserveEventFeedback(user, feedURL, false, at)
		},
		registerDelivery: func(user, id string, ds durable.DeliveryState) {
			e.deliveries.Register(user, id, toDeliveryConfig(fromDurableDelivery(ds), e.cfg))
		},
		removeDelivery: e.deliveries.Remove,
		ackCursor: func(user, id string, seq int64) {
			// The retained window is not durable, so a recovered cursor for
			// a queue the WAL never re-registered (possible only in a
			// corrupt log) is ignored rather than fatal.
			if q, ok := e.deliveries.Get(user, id); ok {
				q.RestoreAcked(seq)
			}
		},
	}
}

// recover replays the shard journal's recovery state: the snapshot
// baseline first, then every intact WAL record in append order. The
// journal is still disarmed, so replayed mutations are not re-logged.
func (e *engine) recover() error {
	st, tail, err := e.journal.Load()
	if err != nil {
		return err
	}
	return e.replay().run(st, tail)
}

// arm turns on live journaling; recovery (or migration) must be done.
func (e *engine) arm() {
	e.journal.Arm(e.captureState, journalSnapshotEvery(e.cfg))
}

// captureState assembles the shard's full durable state for a snapshot.
// The journal holds its exclusive lock while calling it, so no mutation
// is in flight: the capture is a consistent cut of this shard's
// operation stream (shards snapshot independently — each snapshot is a
// per-shard consistent cut, not a global one).
func (e *engine) captureState() (*durable.State, error) {
	clicks, flags := e.server.Store().Dump()
	st := &durable.State{Version: 1, Clicks: clicks}
	if len(flags) > 0 {
		st.Flags = make(map[string]int, len(flags))
		for h, f := range flags {
			st.Flags[h] = int(f)
		}
	}
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
				ds.Delivery = &durable.DeliveryState{
					Guarantee:    AtLeastOnce.String(),
					OrderingKey:  qc.OrderingKey,
					AckTimeoutMS: qc.AckTimeout.Milliseconds(),
					MaxAttempts:  qc.MaxAttempts,
				}
			}
			st.Subscriptions = append(st.Subscriptions, ds)
		}
	}
	st.Pending, st.PendingSeq = e.pending.dump()
	for _, cu := range e.deliveries.Cursors() {
		st.Cursors = append(st.Cursors, durable.CursorState{User: cu.User, ID: cu.ID, Acked: cu.Acked})
	}
	return st, nil
}

// frontLocked returns (creating on first use) the hosted frontend for a
// user, or nil once the shard is torn down — a creation racing Close
// would wire a frontend to the already-closed broker and leak it past
// the teardown snapshot. Caller must hold e.mu.
func (e *engine) frontLocked(user string) *frontend.Frontend {
	if e.closed {
		return nil
	}
	if fe, ok := e.fronts[user]; ok {
		return fe
	}
	bar := frontend.NewSidebar(frontend.Config{
		Capacity: e.cfg.sidebarCapacity,
		TTL:      e.cfg.sidebarTTL,
		Feedback: func(feedURL string, d frontend.Disposition, at time.Time) {
			if feedURL == "" {
				return
			}
			e.server.ObserveEventFeedback(user, feedURL, d == frontend.DispositionClicked, at)
		},
	})
	var sub frontend.Subscriber = e.broker
	if e.cfg.subscriberFor != nil {
		sub = e.cfg.subscriberFor(user)
	}
	fe := frontend.NewFrontend(user, sub, e.proxy, bar, e.clock.Now)
	e.fronts[user] = fe
	e.bars[user] = bar
	return fe
}

// apply executes a recommendation through the user's hosted frontend.
// When the subscription has a reliable queue (registered before this call,
// live and on replay alike), the queue's Append rides along as the
// frontend's tap: the publisher retains the event itself, ahead of the
// sidebar, so a publish that returned is in the queue. A duplicate of a
// best-effort subscription gets the tap attached here.
func (e *engine) apply(user string, rec recommend.Recommendation) error {
	fe, err := e.front(user)
	if err != nil {
		return err
	}
	q, ok := e.deliveries.Get(user, subscriptionID(rec))
	if !ok {
		return fe.Apply(rec)
	}
	return fe.ApplyTapped(rec, func(ev pubsub.Event) { q.Append(ev, e.clock.Now()) })
}

func (e *engine) front(user string) (*frontend.Frontend, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fe := e.frontLocked(user)
	if fe == nil {
		return nil, ErrClosed
	}
	return fe, nil
}

// ingestClicks lands a validated batch in this shard's click store and
// queues page URLs for the next pipeline round.
func (e *engine) ingestClicks(clicks []Click) error {
	return e.server.ReceiveClicks(toAttentionClicks(clicks))
}

// subscriptions lists a user's live subscriptions.
func (e *engine) subscriptions(user string) []Subscription {
	e.mu.Lock()
	fe, ok := e.fronts[user]
	e.mu.Unlock()
	if !ok {
		return []Subscription{}
	}
	active := fe.Active()
	out := make([]Subscription, 0, len(active))
	for _, rec := range active {
		sub := toPublicSubscription(user, rec)
		if q, ok := e.deliveries.Get(user, sub.ID); ok {
			sub.Guarantee = AtLeastOnce.String()
			sub.OrderingKey = q.Config().OrderingKey
			sub.Acked = q.Acked()
		}
		out = append(out, sub)
	}
	return out
}

// subscribe places a feed subscription immediately, bypassing the
// recommendation queue. An AtLeastOnce config additionally registers the
// subscription's reliable queue — before the frontend applies the
// subscription, so no event the new subscription matches can slip past
// the queue.
func (e *engine) subscribe(user, feedURL string, sc SubscribeConfig) (Subscription, error) {
	rec := recommend.Recommendation{
		Kind:    recommend.KindSubscribeFeed,
		User:    user,
		FeedURL: feedURL,
		Filter:  waif.ItemFilter(feedURL),
		Reason:  "direct API subscription",
		At:      e.clock.Now(),
	}
	if err := e.journal.Record(
		func() error {
			reliable := sc.Guarantee == AtLeastOnce
			var created bool
			if reliable {
				_, existed := e.deliveries.Get(user, feedURL)
				e.deliveries.Register(user, feedURL, toDeliveryConfig(sc, e.cfg))
				created = !existed
			}
			if err := e.apply(user, rec); err != nil {
				if created {
					e.deliveries.Remove(user, feedURL)
				}
				return err
			}
			return nil
		},
		func() durable.Record {
			ds := toDurableSub(user, rec)
			ds.Delivery = toDurableDelivery(sc)
			return durable.SubscribeRecord(ds)
		},
	); err != nil {
		return Subscription{}, err
	}
	sub := toPublicSubscription(user, rec)
	if q, ok := e.deliveries.Get(user, sub.ID); ok {
		sub.Guarantee = AtLeastOnce.String()
		sub.OrderingKey = q.Config().OrderingKey
		sub.Acked = q.Acked()
	}
	return sub, nil
}

// unsubscribe removes a feed subscription.
func (e *engine) unsubscribe(user, feedURL string) error {
	e.mu.Lock()
	fe, ok := e.fronts[user]
	e.mu.Unlock()
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
	rec := recommend.Recommendation{
		Kind:    recommend.KindUnsubscribeFeed,
		User:    user,
		FeedURL: feedURL,
		Reason:  "direct API unsubscription",
		At:      e.clock.Now(),
	}
	return e.journal.Record(
		func() error {
			if err := fe.Apply(rec); err != nil {
				return err
			}
			e.deliveries.Remove(user, feedURL)
			return nil
		},
		func() durable.Record { return durable.UnsubscribeRecord(toDurableSub(user, rec)) },
	)
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
	e.mu.Lock()
	fe, ok := e.fronts[user]
	e.mu.Unlock()
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
	q, err := e.deliveryQueue(user, id)
	if err != nil {
		return dst, err
	}
	sp := deliveredScratch.Get().(*[]delivery.Delivered)
	ds := q.FetchInto((*sp)[:0], max, e.clock.Now())
	for _, d := range ds {
		dst = append(dst, DeliveredEvent{Seq: d.Seq, Attempts: d.Attempts, Event: fromPubsubEvent(d.Event)})
	}
	*sp = ds[:0]
	deliveredScratch.Put(sp)
	return dst, nil
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

// recommendations drains freshly generated recommendations into the
// shard's pending ledger and lists the user's queue.
func (e *engine) recommendations(user string) ([]Recommendation, error) {
	// The outbox drain is destructive, so a journaling failure must not
	// abort the loop: every drained recommendation still reaches the
	// in-memory ledger (only its durability is lost), and the first error
	// is reported after.
	var firstErr error
	for _, rec := range e.server.Recommendations(user) {
		rec := rec
		var id string
		var seq int64
		if err := e.journal.Record(
			func() error { id, seq = e.pending.add(user, rec); return nil },
			func() durable.Record {
				return durable.PendingAddRecord(durable.PendingAddPayload{
					User: user, ID: id, Seq: seq, Rec: toDurableRec(rec),
				})
			},
		); err != nil && firstErr == nil {
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
			fe, err := e.front(user)
			if err != nil {
				return err
			}
			return fe.Apply(rec)
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
				e.server.ObserveEventFeedback(user, rec.FeedURL, false, at)
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

// stats snapshots this shard's counters, in the exact key set the
// unsharded deployment has always reported. Keys come from the shared
// constant table (internal/metrics) so the cluster merge rules and the
// /v1/metrics exposition can never drift from what is emitted here.
func (e *engine) stats() Stats {
	out := Stats(e.server.Metrics().Snapshot())
	out[metrics.ClicksStored.Key] = float64(e.server.Store().Len())
	out[metrics.DistinctServers.Key] = float64(e.server.Store().DistinctServers())
	out[metrics.FeedsDiscovered.Key] = float64(e.server.DistinctFeedsFound())
	out[metrics.UploadBytes.Key] = float64(e.server.UploadBytes())
	out[metrics.ProxyFeeds.Key] = float64(e.proxy.NumFeeds())
	for name, v := range e.proxy.Metrics().Snapshot() {
		out["proxy_"+name] = v
	}
	out[metrics.PendingRecommendations.Key] = float64(e.pending.size())
	dt := e.deliveries.Totals()
	out[metrics.DeliveryReliableSubs.Key] = float64(dt.Queues)
	out[metrics.DeliveryRetained.Key] = float64(dt.Retained)
	out[metrics.DeliveryAcked.Key] = float64(dt.Acked)
	out[metrics.DeliveryRedeliveries.Key] = float64(dt.Redeliveries)
	out[metrics.DeliveryDeadLetters.Key] = float64(dt.DeadLetters)
	out[metrics.DeliveryLeaseExpiries.Key] = float64(dt.LeaseExpiries)
	e.mu.Lock()
	out[metrics.UsersWithFrontends.Key] = float64(len(e.fronts))
	e.mu.Unlock()
	for name, v := range e.broker.Metrics().Snapshot() {
		out["broker_"+name] = v
	}
	return out
}

// runPipeline performs one crawl/analysis round over this shard's users.
func (e *engine) runPipeline(now time.Time) core.PipelineStats {
	return e.server.RunPipeline(now)
}

// teardown closes frontends, proxy and broker (but not the journal — the
// caller picks Close vs Crash for that). The closed flag is flipped
// under the same lock frontLocked creates under, so no frontend can be
// born after the snapshot below and escape its Close.
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
	e.mu.Lock()
	bar, ok := e.bars[user]
	e.mu.Unlock()
	return bar, ok
}
