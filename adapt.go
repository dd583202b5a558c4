package reef

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/eventalg"
	"reef/internal/frontend"
	"reef/internal/ir"
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/store"
)

// toPubsubEvent converts a public event to the internal representation,
// at the public-API edge: REST, in-process calls and the SDK.
func toPubsubEvent(ev Event) pubsub.Event {
	return pubsub.Event{
		Attrs:     eventalg.StringAttrs(ev.Attrs),
		Payload:   ev.Payload,
		Source:    ev.Source,
		Published: ev.Published,
	}
}

// toPubsubEvents converts a batch.
func toPubsubEvents(evs []Event) []pubsub.Event {
	out := make([]pubsub.Event, len(evs))
	for i, ev := range evs {
		out[i] = toPubsubEvent(ev)
	}
	return out
}

// checkEvents is the one event validation, whichever edge the batch came
// in by: every event has at least one attribute and no empty name. It
// rejects the whole batch on the first invalid event so none of it is
// published partially.
func checkEvents(evs []pubsub.Event) error {
	for i := range evs {
		a := evs[i].Attrs
		switch {
		case len(a) == 0:
			return fmt.Errorf("event %d: %w: event has no attributes", i, ErrInvalidArgument)
		case a[0].Name == "": // the name order puts an empty name first
			return fmt.Errorf("event %d: %w: empty attribute name", i, ErrInvalidArgument)
		}
	}
	return nil
}

// toPublicRecommendation converts an internal recommendation, attaching
// the pending ID.
func toPublicRecommendation(id string, rec recommend.Recommendation) Recommendation {
	out := Recommendation{
		ID:      id,
		Kind:    rec.Kind.String(),
		User:    rec.User,
		FeedURL: rec.FeedURL,
		Reason:  rec.Reason,
		At:      rec.At,
	}
	if !rec.Filter.IsEmpty() {
		out.Filter = rec.Filter.String()
	}
	for _, t := range rec.Terms {
		out.Terms = append(out.Terms, Term{Term: t.Term, Score: t.Score})
	}
	return out
}

// toPublicSubscription converts the recommendation behind a live
// subscription into the public listing form.
func toPublicSubscription(user string, rec recommend.Recommendation) Subscription {
	sub := Subscription{
		ID:      subscriptionID(rec),
		User:    user,
		Kind:    rec.Kind.String(),
		FeedURL: rec.FeedURL,
		Since:   rec.At,
	}
	if !rec.Filter.IsEmpty() {
		sub.Filter = rec.Filter.String()
	}
	return sub
}

// fromPubsubEvent converts an internal event back to the public form,
// for handing retained events to reliable consumers. String attributes
// come back verbatim; other kinds render in filter syntax.
func fromPubsubEvent(ev pubsub.Event) Event {
	return Event{
		Source:    ev.Source,
		Attrs:     ev.Attrs.Strings(),
		Payload:   ev.Payload,
		Published: ev.Published,
	}
}

// subscriptionID derives the stable subscription identifier the public
// API exposes: the feed URL for feed subscriptions, the canonical filter
// text otherwise.
func subscriptionID(rec recommend.Recommendation) string {
	if rec.FeedURL != "" {
		return rec.FeedURL
	}
	return rec.Filter.Canonical()
}

// deliveryState is the journaled form of an at-least-once subscription's
// delivery config: a subscribe record carries what the caller asked for
// (zero for a deployment default), a snapshot the queue's resolved
// values. Best-effort subscriptions journal none.
func deliveryState(ackTimeout time.Duration, maxAttempts int) *durable.DeliveryState {
	return &durable.DeliveryState{
		Guarantee:    AtLeastOnce.String(),
		AckTimeoutMS: ackTimeout.Milliseconds(),
		MaxAttempts:  maxAttempts,
	}
}

// deliveryConfig resolves a journaled delivery config against the
// deployment defaults into the queue's config. The live path and replay
// both come through here, so a recovered queue is configured exactly as
// the one it replaces.
func deliveryConfig(ds durable.DeliveryState, cfg config) delivery.Config {
	out := delivery.Config{
		AckTimeout:  time.Duration(ds.AckTimeoutMS) * time.Millisecond,
		MaxAttempts: ds.MaxAttempts,
	}
	if out.AckTimeout <= 0 {
		out.AckTimeout = cfg.ackTimeout
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = cfg.maxAttempts
	}
	return out
}

// toPublicDelivered converts leased events to the public form.
func toPublicDelivered(ds []delivery.Delivered) []DeliveredEvent {
	out := make([]DeliveredEvent, len(ds))
	for i, d := range ds {
		out[i] = DeliveredEvent{Seq: d.Seq, Attempts: d.Attempts, Event: fromPubsubEvent(d.Event)}
	}
	return out
}

// toPublicDeadLetters converts dead-letter entries to the public form.
func toPublicDeadLetters(ds []delivery.DeadLetter) []DeadLetter {
	out := make([]DeadLetter, len(ds))
	for i, d := range ds {
		out[i] = DeadLetter{
			Seq: d.Seq, Attempts: d.Attempts, Event: fromPubsubEvent(d.Event),
			At: d.At, Reason: d.Reason,
		}
	}
	return out
}

// toSidebarItems converts frontend sidebar items.
func toSidebarItems(items []frontend.SidebarItem) []SidebarItem {
	out := make([]SidebarItem, len(items))
	for i, it := range items {
		out[i] = SidebarItem{
			ID:      it.ID,
			Title:   it.Title,
			Link:    it.Link,
			FeedURL: it.FeedURL,
			Shown:   it.Shown,
		}
	}
	return out
}

// brokerPublisher adapts the deployment's broker to waif.Publisher.
type brokerPublisher struct{ broker *pubsub.Broker }

func (p brokerPublisher) Publish(ctx context.Context, ev pubsub.Event) error {
	_, err := p.broker.Publish(ctx, ev)
	return err
}

// pendingRec is one queued recommendation awaiting accept/reject.
type pendingRec struct {
	seq int64
	rec recommend.Recommendation
}

// pendingSet is the per-user ledger of pending recommendations. Safe for
// concurrent use.
type pendingSet struct {
	mu     sync.Mutex
	next   int64
	byUser map[string]map[string]pendingRec
}

func newPendingSet() *pendingSet {
	return &pendingSet{byUser: make(map[string]map[string]pendingRec)}
}

// add queues one recommendation and returns its assigned ID and sequence
// number (the durable layer logs both so recovery reproduces them).
func (p *pendingSet) add(user string, rec recommend.Recommendation) (string, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	id := "r" + strconv.FormatInt(p.next, 10)
	m := p.byUser[user]
	if m == nil {
		m = make(map[string]pendingRec)
		p.byUser[user] = m
	}
	m[id] = pendingRec{seq: p.next, rec: rec}
	return id, p.next
}

// restore re-queues a recovered recommendation under its original ID,
// advancing the counter past its sequence so fresh IDs never collide.
func (p *pendingSet) restore(user, id string, seq int64, rec recommend.Recommendation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq > p.next {
		p.next = seq
	}
	m := p.byUser[user]
	if m == nil {
		m = make(map[string]pendingRec)
		p.byUser[user] = m
	}
	m[id] = pendingRec{seq: seq, rec: rec}
}

// setSeq advances the ID counter to at least seq (snapshot restore).
func (p *pendingSet) setSeq(seq int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq > p.next {
		p.next = seq
	}
}

// dump exports every pending recommendation in sequence order plus the
// current ID counter, for snapshot capture.
func (p *pendingSet) dump() ([]durable.PendingAddPayload, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []durable.PendingAddPayload
	for user, m := range p.byUser {
		for id, pr := range m {
			out = append(out, durable.PendingAddPayload{
				User: user, ID: id, Seq: pr.seq, Rec: toDurableRec(pr.rec),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, p.next
}

// list snapshots a user's pending recommendations in issue order.
func (p *pendingSet) list(user string) []Recommendation {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.byUser[user]
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return m[ids[i]].seq < m[ids[j]].seq })
	out := make([]Recommendation, 0, len(ids))
	for _, id := range ids {
		out = append(out, toPublicRecommendation(id, m[id].rec))
	}
	return out
}

// take removes and returns one pending recommendation.
func (p *pendingSet) take(user, id string) (recommend.Recommendation, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.byUser[user]
	pr, ok := m[id]
	if !ok {
		return recommend.Recommendation{}, false
	}
	delete(m, id)
	if len(m) == 0 {
		delete(p.byUser, user)
	}
	return pr.rec, true
}

// size reports the total number of pending recommendations.
func (p *pendingSet) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.byUser {
		n += len(m)
	}
	return n
}

// toDurableRec serializes a recommendation for the WAL / snapshot. The
// filter travels in parser syntax with declaration order preserved
// (String, not Canonical), so a recovered subscription renders exactly
// the filter text the original did.
func toDurableRec(rec recommend.Recommendation) durable.RecommendationState {
	out := durable.RecommendationState{
		Kind:    rec.Kind.String(),
		User:    rec.User,
		FeedURL: rec.FeedURL,
		Reason:  rec.Reason,
		At:      rec.At,
	}
	if !rec.Filter.IsEmpty() {
		out.Filter = rec.Filter.String()
	}
	for _, t := range rec.Terms {
		out.Terms = append(out.Terms, durable.TermState{Term: t.Term, Score: t.Score})
	}
	return out
}

// kindFromString inverts recommend.Kind.String.
func kindFromString(s string) (recommend.Kind, error) {
	switch s {
	case KindSubscribeFeed:
		return recommend.KindSubscribeFeed, nil
	case KindUnsubscribeFeed:
		return recommend.KindUnsubscribeFeed, nil
	case KindContentQuery:
		return recommend.KindContentQuery, nil
	default:
		return 0, fmt.Errorf("unknown recommendation kind %q", s)
	}
}

// fromDurableRec rebuilds a recommendation from its durable form.
func fromDurableRec(st durable.RecommendationState) (recommend.Recommendation, error) {
	kind, err := kindFromString(st.Kind)
	if err != nil {
		return recommend.Recommendation{}, err
	}
	rec := recommend.Recommendation{
		Kind:    kind,
		User:    st.User,
		FeedURL: st.FeedURL,
		Reason:  st.Reason,
		At:      st.At,
	}
	if st.Filter != "" {
		f, err := eventalg.Parse(st.Filter)
		if err != nil {
			return recommend.Recommendation{}, fmt.Errorf("parsing filter %q: %w", st.Filter, err)
		}
		rec.Filter = f
	}
	for _, t := range st.Terms {
		rec.Terms = append(rec.Terms, ir.TermScore{Term: t.Term, Score: t.Score})
	}
	return rec, nil
}

// toDurableSub serializes one live subscription for the snapshot /
// subscribe-op payload.
func toDurableSub(user string, rec recommend.Recommendation) durable.SubscriptionState {
	st := durable.SubscriptionState{
		User:    user,
		Kind:    rec.Kind.String(),
		FeedURL: rec.FeedURL,
		Reason:  rec.Reason,
		At:      rec.At,
	}
	if !rec.Filter.IsEmpty() {
		st.Filter = rec.Filter.String()
	}
	return st
}

// fromDurableSub rebuilds the recommendation behind a recovered
// subscription so it can be re-applied through the frontend.
func fromDurableSub(st durable.SubscriptionState) (recommend.Recommendation, error) {
	return fromDurableRec(durable.RecommendationState{
		Kind:    st.Kind,
		User:    st.User,
		FeedURL: st.FeedURL,
		Filter:  st.Filter,
		Reason:  st.Reason,
		At:      st.At,
	})
}

// openJournal builds the node's persistence journal: a file backend
// over the data directory's root when WithDataDir was given, a disabled
// journal otherwise. An unset sync policy is the backend's default,
// SyncAsync.
func openJournal(cfg config) (*durable.Journal, error) {
	if cfg.dataDir == "" {
		return durable.NewJournal(nil), nil
	}
	if cfg.syncPolicy < 0 || cfg.syncPolicy > SyncNever {
		return nil, fmt.Errorf("%w: unknown sync policy %d", ErrInvalidArgument, cfg.syncPolicy)
	}
	b, err := durable.OpenFile(cfg.dataDir, durable.FileOptions{Sync: cfg.syncPolicy})
	if err != nil {
		return nil, err
	}
	return durable.NewJournal(b), nil
}

// journalSnapshotEvery resolves the WithSnapshotEvery setting: 0 means
// the 4096-record default, negative disables automatic compaction.
func journalSnapshotEvery(cfg config) int {
	switch {
	case cfg.snapshotEvery < 0:
		return 0
	case cfg.snapshotEvery == 0:
		return 4096
	default:
		return cfg.snapshotEvery
	}
}

// toStorageInfo converts backend info to the public form.
func toStorageInfo(info durable.Info) StorageInfo {
	return StorageInfo{
		Backend:          info.Kind,
		Dir:              info.Dir,
		Sync:             info.Sync,
		Generation:       info.Generation,
		WALRecords:       info.WALRecords,
		WALBytes:         info.WALBytes,
		Snapshots:        info.Snapshots,
		Syncs:            info.Syncs,
		LastSnapshot:     info.LastSnapshot,
		RecoveredRecords: info.RecoveredRecords,
		TornTail:         info.TornTail,
	}
}

// storeFlag maps a public flag name to the click store's bitmask.
func storeFlag(name string) store.Flag {
	switch name {
	case "ad":
		return store.FlagAd
	case "spam":
		return store.FlagSpam
	case "multimedia":
		return store.FlagMultimedia
	case "crawled":
		return store.FlagCrawled
	default:
		return 0
	}
}

// validateUser rejects empty user identities.
func validateUser(user string) error {
	if strings.TrimSpace(user) == "" {
		return fmt.Errorf("%w: empty user", ErrInvalidArgument)
	}
	return nil
}

// validateSubID rejects empty subscription identifiers on calls that
// address exactly one subscription.
func validateSubID(subID string) error {
	if strings.TrimSpace(subID) == "" {
		return fmt.Errorf("%w: empty subscription ID", ErrInvalidArgument)
	}
	return nil
}

// validateFeedURL rejects URLs the feed machinery cannot parse.
func validateFeedURL(feedURL string) error {
	if feedURL == "" {
		return fmt.Errorf("%w: empty feed URL", ErrInvalidArgument)
	}
	if !strings.HasPrefix(feedURL, "http://") && !strings.HasPrefix(feedURL, "https://") {
		return fmt.Errorf("%w: feed URL %q lacks an http(s) scheme", ErrInvalidArgument, feedURL)
	}
	return nil
}
