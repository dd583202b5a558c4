package reef

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"reef/internal/attention"
	"reef/internal/core"
	"reef/internal/durable"
	"reef/internal/frontend"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/simclock"
	"reef/internal/waif"
)

// Distributed is the public face of the paper's Figure 2 deployment: one
// Reef peer per user runs the whole pipeline over the local browser cache
// — attention data never leaves the host — and peers with similar
// interest profiles form communities that exchange feed recommendations.
// The adapter hosts a set of peers and drives them through the same
// Deployment interface as the centralized server.
//
// Like Centralized, the host side is a router over WithShards(n)
// independent shards: each shard owns an edge broker, WAIF proxy,
// pending ledger and journal for the peers whose users hash to it.
// Community exchange still spans every peer on the host — interest
// similarity does not respect hash boundaries.
type Distributed struct {
	cfg    config
	clock  simclock.Clock
	shards []*peerShard

	mu     sync.Mutex
	closed bool
}

var (
	_ Deployment = (*Distributed)(nil)
	_ Persister  = (*Distributed)(nil)
	_ Sharder    = (*Distributed)(nil)
)

// peerShard is one shard of the distributed host: the peers of one user
// partition plus the broker, proxy, pending ledger and journal that
// serve them.
type peerShard struct {
	idx     int
	cfg     config
	clock   simclock.Clock
	broker  *pubsub.Broker
	proxy   *waif.Proxy
	pending *pendingSet
	journal *durable.Journal

	mu     sync.Mutex
	closed bool
	peers  map[string]*core.Peer
}

func newPeerShard(cfg config, idx int, journal *durable.Journal) *peerShard {
	s := &peerShard{
		idx:     idx,
		cfg:     cfg,
		clock:   cfg.clock,
		journal: journal,
		broker:  pubsub.NewBroker(fmt.Sprintf("reef-peer-edge-%d", idx), cfg.clock),
		pending: newPendingSet(),
		peers:   make(map[string]*core.Peer),
	}
	publisher := cfg.feedPublisher
	if publisher == nil {
		publisher = brokerPublisher{s.broker}
	}
	s.proxy = waif.New(waif.Config{
		Fetcher:   cfg.fetcher,
		Publish:   publisher,
		PollEvery: cfg.pollEvery,
	})
	return s
}

// NewDistributed builds the distributed deployment. WithFetcher is
// required: it stands in for each peer's browser cache. By default
// locally generated recommendations queue for AcceptRecommendation;
// WithAutoApply(true) restores the paper's zero-click behavior.
//
// With WithDataDir each shard's subscription table and
// pending-recommendation ledger persist and recover (all shards in
// parallel); raw attention data deliberately does not — in the
// distributed deployment clicks never leave the user's host (paper §4),
// so the durable footprint holds only what the user chose to act on,
// and profile state rebuilds from future browsing.
func NewDistributed(opts ...Option) (*Distributed, error) {
	cfg := buildConfig(opts)
	if cfg.fetcher == nil {
		return nil, fmt.Errorf("%w: NewDistributed requires WithFetcher", ErrInvalidArgument)
	}
	n, err := resolveShards(cfg)
	if err != nil {
		return nil, err
	}
	// Checked before planShards may write to the directory, and again
	// for an adopted count (see NewCentralized).
	checkCombos := func(n int) error {
		if n > 1 && cfg.feedPublisher != nil {
			return fmt.Errorf("%w: WithFeedPublisher cannot fan in from more than one shard; use WithShards(1)", ErrInvalidArgument)
		}
		return nil
	}
	if err := checkCombos(n); err != nil {
		return nil, err
	}
	plan, err := planShards(cfg.dataDir, n)
	if err != nil {
		return nil, err
	}
	n = plan.n
	if err := checkCombos(n); err != nil {
		return nil, err
	}
	d := &Distributed{cfg: cfg, clock: cfg.clock, shards: make([]*peerShard, n)}
	for i := range d.shards {
		dir := ""
		if plan.dirs != nil {
			dir = plan.dirs[i]
		}
		journal, err := openShardJournal(cfg, dir)
		if err != nil {
			d.teardownPartial(i)
			return nil, err
		}
		d.shards[i] = newPeerShard(cfg, i, journal)
	}
	fail := func(err error) (*Distributed, error) {
		d.teardownPartial(n)
		return nil, fmt.Errorf("reef: recovering %s: %w", cfg.dataDir, err)
	}
	if plan.migrate {
		if err := d.migrateFrom(plan); err != nil {
			return fail(err)
		}
	} else {
		if _, err := fanOut(n, func(i int) (struct{}, error) {
			return struct{}{}, d.shards[i].recover()
		}); err != nil {
			return fail(err)
		}
		for _, s := range d.shards {
			s.arm()
		}
		if err := ensureShardLayout(cfg.dataDir, n); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

func (d *Distributed) teardownPartial(k int) {
	for i := 0; i < k; i++ {
		if d.shards[i] != nil {
			d.shards[i].teardown()
			_ = d.shards[i].journal.Close()
		}
	}
}

// migrateFrom replays an old layout's journals routed to the shards
// users now hash to, snapshots each shard, and retires the old layout.
func (d *Distributed) migrateFrom(plan shardPlan) error {
	rep := d.routedReplay()
	for _, dir := range plan.oldDirs {
		st, tail, err := loadShardSource(dir)
		if err != nil {
			return fmt.Errorf("migrating %s: %w", dir, err)
		}
		if err := rep.run(st, tail); err != nil {
			return fmt.Errorf("migrating %s: %w", dir, err)
		}
	}
	for _, s := range d.shards {
		s.arm()
	}
	if _, err := fanOut(len(d.shards), func(i int) (struct{}, error) {
		return struct{}{}, d.shards[i].journal.Snapshot()
	}); err != nil {
		return fmt.Errorf("snapshotting migrated shards: %w", err)
	}
	return finishMigration(d.cfg.dataDir, plan)
}

// routedReplay routes recovered user-addressed ops to each user's
// shard; the distributed journal has no clicks or flags, so the shared
// router's hooks are the whole story.
func (d *Distributed) routedReplay() durableReplay {
	reps := make([]durableReplay, len(d.shards))
	for i, s := range d.shards {
		reps[i] = s.replay()
	}
	return routedReplay(reps)
}

// replay returns this shard's recovery hooks. The distributed journal
// emits only subscription and pending-ledger ops, so the clicks/flags
// hooks stay nil.
func (s *peerShard) replay() durableReplay {
	apply := func(rec recommend.Recommendation) error {
		p, err := s.peer(rec.User)
		if err != nil {
			return err
		}
		return p.Apply(rec)
	}
	return durableReplay{
		applySub: apply,
		restorePending: func(user, id string, seq int64, rec recommend.Recommendation) {
			s.pending.restore(user, id, seq, rec)
		},
		setPendingSeq: s.pending.setSeq,
		takePending:   s.pending.take,
		acceptRec:     func(user string, rec recommend.Recommendation) error { return apply(rec) },
		rejectFeedback: func(user, feedURL string, at time.Time) {
			// Like the live path: no peer is created just for feedback.
			s.mu.Lock()
			p, ok := s.peers[user]
			s.mu.Unlock()
			if ok {
				p.ObserveEventFeedback(feedURL, false, at)
			}
		},
	}
}

// recover replays the shard's snapshot baseline and intact WAL tail.
func (s *peerShard) recover() error {
	st, tail, err := s.journal.Load()
	if err != nil {
		return err
	}
	return s.replay().run(st, tail)
}

func (s *peerShard) arm() {
	s.journal.Arm(s.captureState, journalSnapshotEvery(s.cfg))
}

// captureState assembles the shard's durable state: every hosted peer's
// live subscriptions plus the pending ledger.
func (s *peerShard) captureState() (*durable.State, error) {
	st := &durable.State{Version: 1}
	s.mu.Lock()
	users := s.usersLocked()
	peers := make([]*core.Peer, len(users))
	for i, u := range users {
		peers[i] = s.peers[u]
	}
	s.mu.Unlock()
	for i, p := range peers {
		for _, rec := range p.Frontend().Active() {
			st.Subscriptions = append(st.Subscriptions, toDurableSub(users[i], rec))
		}
	}
	st.Pending, st.PendingSeq = s.pending.dump()
	return st, nil
}

// addPending journals one recommendation into the shard's ledger.
func (s *peerShard) addPending(user string, rec recommend.Recommendation) error {
	var id string
	var seq int64
	return s.journal.Record(
		func() error { id, seq = s.pending.add(user, rec); return nil },
		func() durable.Record {
			return durable.PendingAddRecord(durable.PendingAddPayload{
				User: user, ID: id, Seq: seq, Rec: toDurableRec(rec),
			})
		},
	)
}

// peerLocked returns (creating on first use) the peer for a user, or
// nil once the shard is torn down — a creation racing Close would wire
// a peer to the closed broker and leak it past the teardown snapshot.
// Caller must hold s.mu.
func (s *peerShard) peerLocked(user string) *core.Peer {
	if s.closed {
		return nil
	}
	if p, ok := s.peers[user]; ok {
		return p
	}
	var sub frontend.Subscriber = s.broker
	if s.cfg.subscriberFor != nil {
		sub = s.cfg.subscriberFor(user)
	}
	p := core.NewPeer(core.PeerConfig{
		User:       user,
		Subscriber: sub,
		Proxy:      s.proxy,
		Clock:      s.clock,
		Topic: recommend.TopicConfig{
			MinHostVisits: s.cfg.topic.MinHostVisits,
			InactiveAfter: s.cfg.topic.InactiveAfter,
			MinScore:      s.cfg.topic.MinScore,
		},
		Content:         recommend.ContentConfig{NumTerms: s.cfg.content.NumTerms},
		SidebarCapacity: s.cfg.sidebarCapacity,
		SidebarTTL:      s.cfg.sidebarTTL,
		ManualApply:     !s.cfg.autoApply,
	})
	s.peers[user] = p
	return p
}

func (s *peerShard) peer(user string) (*core.Peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peerLocked(user)
	if p == nil {
		return nil, ErrClosed
	}
	return p, nil
}

// lookup returns the peer without creating one.
func (s *peerShard) lookup(user string) (*core.Peer, bool) {
	s.mu.Lock()
	p, ok := s.peers[user]
	s.mu.Unlock()
	return p, ok
}

// usersLocked returns sorted users; caller holds s.mu.
func (s *peerShard) usersLocked() []string {
	out := make([]string, 0, len(s.peers))
	for u := range s.peers {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// snapshotPeers copies out the live peers.
func (s *peerShard) snapshotPeers() []*core.Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Peer, 0, len(s.peers))
	for _, u := range s.usersLocked() {
		out = append(out, s.peers[u])
	}
	return out
}

// teardown closes peers, proxy and broker (the journal is closed or
// crashed separately). The closed flag flips under the same lock
// peerLocked creates under, so no peer is born after the snapshot.
func (s *peerShard) teardown() {
	s.mu.Lock()
	s.closed = true
	peers := make([]*core.Peer, 0, len(s.peers))
	for _, p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	s.proxy.Close()
	s.broker.Close()
}

// shard returns the shard serving a user.
func (d *Distributed) shard(user string) *peerShard {
	return d.shards[shardFor(user, len(d.shards))]
}

// ShardCount implements Sharder.
func (d *Distributed) ShardCount() int { return len(d.shards) }

func (d *Distributed) checkOpen(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// IngestClicks implements Deployment: each click is analyzed entirely on
// the user's peer against the locally cached page — no click upload, no
// crawl traffic. Clicks whose page is not in the cache are skipped; the
// returned count is the number analyzed.
func (d *Distributed) IngestClicks(ctx context.Context, clicks []Click) (int, error) {
	if err := d.checkOpen(ctx); err != nil {
		return 0, err
	}
	// Validate the whole batch before analyzing anything, so an invalid
	// click cannot leave the batch half-ingested (Centralized does the
	// same; a client retrying a corrected batch must not double-count).
	for _, cl := range clicks {
		if err := validateUser(cl.User); err != nil {
			return 0, err
		}
		if cl.URL == "" {
			return 0, fmt.Errorf("%w: click with empty URL", ErrInvalidArgument)
		}
	}
	ingested := 0
	for _, cl := range clicks {
		if err := ctx.Err(); err != nil {
			return ingested, err
		}
		res, err := d.cfg.fetcher.Fetch(cl.URL)
		if err != nil {
			continue // not in the browser cache: nothing to analyze
		}
		s := d.shard(cl.User)
		p, err := s.peer(cl.User)
		if err != nil {
			return ingested, err
		}
		recs := p.ObservePageView(attention.Click{
			User:      cl.User,
			URL:       cl.URL,
			At:        cl.At,
			Referrer:  cl.Referrer,
			FromEvent: cl.FromEvent,
		}, res)
		ingested++
		if !d.cfg.autoApply {
			for _, rec := range recs {
				if err := s.addPending(cl.User, rec); err != nil {
					return ingested, err
				}
			}
		}
	}
	return ingested, nil
}

// PublishEvent implements Deployment: the event fans out to every
// shard's broker. With WithFeedPublisher the event goes to the
// caller-owned publisher, whose delivery count is not observable from
// here: a successful publish then reports 0 deliveries.
func (d *Distributed) PublishEvent(ctx context.Context, ev Event) (int, error) {
	if err := d.checkOpen(ctx); err != nil {
		return 0, err
	}
	pev, err := toPubsubEvent(ev)
	if err != nil {
		return 0, err
	}
	if d.cfg.feedPublisher != nil {
		if err := d.cfg.feedPublisher.Publish(ctx, pev); err != nil {
			return 0, err
		}
		return 0, nil
	}
	n := len(d.shards)
	if n == 1 {
		return d.shards[0].broker.Publish(ctx, pev)
	}
	one := [1]pubsub.Event{pev}
	stampEvents(one[:], d.clock.Now)
	return sumFanOut(n, func(i int) (int, error) {
		return d.shards[i].broker.Publish(ctx, one[0])
	})
}

// PublishBatch implements Deployment; see Centralized.PublishBatch.
func (d *Distributed) PublishBatch(ctx context.Context, evs []Event) (int, error) {
	if err := d.checkOpen(ctx); err != nil {
		return 0, err
	}
	pevs, err := toPubsubEvents(evs)
	if err != nil {
		return 0, err
	}
	if d.cfg.feedPublisher != nil {
		for _, pev := range pevs {
			if err := d.cfg.feedPublisher.Publish(ctx, pev); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	n := len(d.shards)
	if n == 1 {
		return d.shards[0].broker.PublishBatch(ctx, pevs)
	}
	stampEvents(pevs, d.clock.Now)
	return sumFanOut(n, func(i int) (int, error) {
		return d.shards[i].broker.PublishBatch(ctx, pevs)
	})
}

// Subscriptions implements Deployment.
func (d *Distributed) Subscriptions(ctx context.Context, user string) ([]Subscription, error) {
	if err := d.checkOpen(ctx); err != nil {
		return nil, err
	}
	if err := validateUser(user); err != nil {
		return nil, err
	}
	p, ok := d.shard(user).lookup(user)
	if !ok {
		return []Subscription{}, nil
	}
	active := p.Frontend().Active()
	out := make([]Subscription, 0, len(active))
	for _, rec := range active {
		out = append(out, toPublicSubscription(user, rec))
	}
	return out, nil
}

// Subscribe implements Deployment. The WAIF-peer pipeline delivers
// best-effort only (the paper's peers have no server-side retention), so
// requesting AtLeastOnce is rejected with ErrUnsupported.
func (d *Distributed) Subscribe(ctx context.Context, user, feedURL string, opts ...SubscribeOption) (Subscription, error) {
	if err := d.checkOpen(ctx); err != nil {
		return Subscription{}, err
	}
	if err := validateUser(user); err != nil {
		return Subscription{}, err
	}
	if err := validateFeedURL(feedURL); err != nil {
		return Subscription{}, err
	}
	sc, err := NewSubscribeConfig(opts...)
	if err != nil {
		return Subscription{}, err
	}
	if sc.Guarantee == AtLeastOnce {
		return Subscription{}, fmt.Errorf("%w: the distributed deployment delivers best-effort only", ErrUnsupported)
	}
	rec := recommend.Recommendation{
		Kind:    recommend.KindSubscribeFeed,
		User:    user,
		FeedURL: feedURL,
		Filter:  waif.ItemFilter(feedURL),
		Reason:  "direct API subscription",
		At:      d.clock.Now(),
	}
	s := d.shard(user)
	p, err := s.peer(user)
	if err != nil {
		return Subscription{}, err
	}
	if err := s.journal.Record(
		func() error { return p.Apply(rec) },
		func() durable.Record { return durable.SubscribeRecord(toDurableSub(user, rec)) },
	); err != nil {
		return Subscription{}, err
	}
	return toPublicSubscription(user, rec), nil
}

// Unsubscribe implements Deployment.
func (d *Distributed) Unsubscribe(ctx context.Context, user, feedURL string) error {
	if err := d.checkOpen(ctx); err != nil {
		return err
	}
	if err := validateUser(user); err != nil {
		return err
	}
	if err := validateFeedURL(feedURL); err != nil {
		return err
	}
	s := d.shard(user)
	p, ok := s.lookup(user)
	if !ok {
		return fmt.Errorf("%w: user %q has no subscriptions", ErrNotFound, user)
	}
	found := false
	for _, rec := range p.Frontend().Active() {
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
		At:      d.clock.Now(),
	}
	return s.journal.Record(
		func() error { return p.Apply(rec) },
		func() durable.Record { return durable.UnsubscribeRecord(toDurableSub(user, rec)) },
	)
}

// Recommendations implements Deployment. With WithAutoApply(true) the
// ledger stays empty: recommendations apply the moment they are born.
func (d *Distributed) Recommendations(ctx context.Context, user string) ([]Recommendation, error) {
	if err := d.checkOpen(ctx); err != nil {
		return nil, err
	}
	if err := validateUser(user); err != nil {
		return nil, err
	}
	return d.shard(user).pending.list(user), nil
}

// AcceptRecommendation implements Deployment.
func (d *Distributed) AcceptRecommendation(ctx context.Context, user, id string) error {
	if err := d.checkOpen(ctx); err != nil {
		return err
	}
	if err := validateUser(user); err != nil {
		return err
	}
	s := d.shard(user)
	return s.journal.Record(
		func() error {
			rec, ok := s.pending.take(user, id)
			if !ok {
				return fmt.Errorf("%w: no pending recommendation %q for user %q", ErrNotFound, id, user)
			}
			p, err := s.peer(user)
			if err != nil {
				return err
			}
			return p.Apply(rec)
		},
		func() durable.Record {
			return durable.PendingTakeRecord(durable.PendingTakePayload{
				User: user, ID: id, Accepted: true, At: d.clock.Now(),
			})
		},
	)
}

// RejectRecommendation implements Deployment.
func (d *Distributed) RejectRecommendation(ctx context.Context, user, id string) error {
	if err := d.checkOpen(ctx); err != nil {
		return err
	}
	if err := validateUser(user); err != nil {
		return err
	}
	at := d.clock.Now()
	s := d.shard(user)
	return s.journal.Record(
		func() error {
			rec, ok := s.pending.take(user, id)
			if !ok {
				return fmt.Errorf("%w: no pending recommendation %q for user %q", ErrNotFound, id, user)
			}
			if rec.FeedURL != "" {
				if p, ok := s.lookup(user); ok {
					p.ObserveEventFeedback(rec.FeedURL, false, at)
				}
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

// Stats implements Deployment: counters sum across shards, plus the
// shard count.
func (d *Distributed) Stats(ctx context.Context) (Stats, error) {
	if err := d.checkOpen(ctx); err != nil {
		return nil, err
	}
	perShard := make([]Stats, len(d.shards))
	var peers, subs, feeds, applied, pending int
	for i, s := range d.shards {
		for _, p := range s.snapshotPeers() {
			subs += len(p.Frontend().ActiveSubscriptions())
			feeds += len(p.KnownFeeds())
			applied += p.AppliedRecommendations()
			peers++
		}
		pending += s.pending.size()
		ss := Stats{metrics.ProxyFeeds.Key: float64(s.proxy.NumFeeds())}
		for name, v := range s.broker.Metrics().Snapshot() {
			ss["broker_"+name] = v
		}
		perShard[i] = ss
	}
	out := mergeStats(perShard)
	out[metrics.DistributedPeers.Key] = float64(peers)
	out[metrics.DistributedSubs.Key] = float64(subs)
	out[metrics.DistributedKnownFeeds.Key] = float64(feeds)
	out[metrics.DistributedApplied.Key] = float64(applied)
	out[metrics.PendingRecommendations.Key] = float64(pending)
	out[metrics.Shards.Key] = float64(len(d.shards))
	return out, nil
}

// Close implements Deployment. Idempotent. Buffered WAL appends flush on
// every shard.
func (d *Distributed) Close() error {
	if !d.markClosed() {
		return nil
	}
	var firstErr error
	for _, s := range d.shards {
		s.teardown()
		if err := s.journal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Crash closes the deployment without flushing buffered WAL appends (the
// fault-injection hook behind crash-recovery tests).
func (d *Distributed) Crash() error {
	if !d.markClosed() {
		return nil
	}
	var firstErr error
	for _, s := range d.shards {
		s.teardown()
		if err := s.journal.Crash(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// markClosed flips the closed flag; it reports false if the deployment
// was already closed.
func (d *Distributed) markClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.closed = true
	return true
}

// StorageInfo implements Persister; see Centralized.StorageInfo.
func (d *Distributed) StorageInfo(ctx context.Context) (StorageInfo, error) {
	if err := d.checkOpen(ctx); err != nil {
		return StorageInfo{}, err
	}
	infos := make([]durable.Info, len(d.shards))
	for i, s := range d.shards {
		infos[i] = s.journal.Info()
	}
	return mergeStorageInfo(d.cfg.dataDir, infos), nil
}

// Snapshot implements Persister; see Centralized.Snapshot.
func (d *Distributed) Snapshot(ctx context.Context) (StorageInfo, error) {
	if err := d.checkOpen(ctx); err != nil {
		return StorageInfo{}, err
	}
	if _, err := fanOut(len(d.shards), func(i int) (struct{}, error) {
		return struct{}{}, d.shards[i].journal.Snapshot()
	}); err != nil {
		return StorageInfo{}, err
	}
	return d.StorageInfo(ctx)
}

// Users lists the users with live peers across all shards, sorted.
func (d *Distributed) Users() []string {
	var out []string
	for _, s := range d.shards {
		s.mu.Lock()
		out = append(out, s.usersLocked()...)
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// KnownFeedCount reports how many distinct feeds a peer has discovered.
func (d *Distributed) KnownFeedCount(user string) int {
	p, ok := d.shard(user).lookup(user)
	if !ok {
		return 0
	}
	return len(p.KnownFeeds())
}

// AppliedCount reports how many recommendations a peer has applied.
func (d *Distributed) AppliedCount(user string) int {
	p, ok := d.shard(user).lookup(user)
	if !ok {
		return 0
	}
	return p.AppliedRecommendations()
}

// Sidebar returns a peer's displayed events, oldest first.
func (d *Distributed) Sidebar(user string) []SidebarItem {
	p, ok := d.shard(user).lookup(user)
	if !ok {
		return nil
	}
	return toSidebarItems(p.Sidebar().Items())
}

// SweepInactive runs each peer's unsubscribe policy across all shards.
// In manual mode the resulting unsubscribe recommendations queue as
// pending on the peer's shard; with WithAutoApply(true) they apply
// immediately. The sweep continues past a journaling failure and
// reports the first error alongside the count.
func (d *Distributed) SweepInactive(now time.Time) (int, error) {
	total := 0
	var firstErr error
	for _, s := range d.shards {
		for _, p := range s.snapshotPeers() {
			recs := p.SweepInactive(now)
			total += len(recs)
			if !d.cfg.autoApply {
				for _, rec := range recs {
					if err := s.addPending(rec.User, rec); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			}
		}
	}
	return total, firstErr
}

// PollFeeds polls due feeds through every shard's WAIF proxy.
func (d *Distributed) PollFeeds(ctx context.Context, now time.Time) (polled, published int) {
	type counts struct{ polled, published int }
	results, _ := fanOut(len(d.shards), func(i int) (counts, error) {
		p, pub := d.shards[i].proxy.PollDue(ctx, now)
		return counts{p, pub}, nil
	})
	for _, r := range results {
		polled += r.polled
		published += r.published
	}
	return polled, published
}

// ExchangeCommunities clusters peers by profile similarity and delivers
// collaborative feed recommendations within each community. Communities
// span shards — similarity, not hash placement, groups peers. It
// returns the number of communities and recommendations exchanged.
func (d *Distributed) ExchangeCommunities(threshold float64, now time.Time) (communities, exchanged int) {
	var peers []*core.Peer
	for _, s := range d.shards {
		peers = append(peers, s.snapshotPeers()...)
	}
	return core.ExchangeCommunities(peers, threshold, now)
}
