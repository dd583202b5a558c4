package reef

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/routing"
	"reef/internal/store"
)

// shardFor maps a user identity to a shard index with the shared
// FNV-1a placement hash (internal/routing, also the cluster router's
// user→node scheme). Shards are an in-memory partition only: every
// journal record carries its user, so recovery routes it to whichever
// shard the user hashes to at the count the node opened with.
func shardFor(user string, n int) int {
	return routing.UserSlot(user, n)
}

// router is the user→shard router both deployments are built on: it
// owns the WithShards(n) engines, the node's one journal and the
// open/closed state, and serves every verb whose only
// deployment-specific part is the shards' click policy. Users partition
// across shards by a stable hash, so every user-addressed call
// (clicks, subscriptions, recommendations, sidebar) touches exactly one
// shard's lock domains, while publishes fan out to all shards
// concurrently. Every shard records through the same journal at the
// data-dir root — one log in one order, whatever the shard count — so a
// directory reopens at any count and a single shard behaves exactly
// like the pre-sharding deployment.
type router struct {
	cfg     config
	shards  []*engine
	journal *durable.Journal

	mu     sync.Mutex
	closed bool
	// replPos is how far this node's log holds each source's
	// replication stream, by source.
	replPos map[string]durable.ReplPosition
}

// openRouter builds the shards over one journal, each with the click
// policy newPolicy makes, then recovers the data directory — or imports
// the per-shard layout older releases wrote — before arming the journal
// (see NewCentralized). Option combinations a shard count cannot serve
// are rejected before anything touches the data directory, so a rejected
// constructor leaves no trace.
func openRouter(cfg config, newPolicy func(config, *durable.Journal) clickPolicy) (*router, error) {
	n := cfg.shards
	if n < 1 {
		return nil, fmt.Errorf("%w: WithShards(%d): shard count must be at least 1", ErrInvalidArgument, n)
	}
	if n > 1 && cfg.feedPublisher != nil {
		// Every shard's WAIF proxy would poll the feeds its users track and
		// publish each new item to the one caller-owned publisher:
		// duplicate deliveries for any feed followed from two shards.
		return nil, fmt.Errorf("%w: WithFeedPublisher cannot fan in from more than one shard; use WithShards(1)", ErrInvalidArgument)
	}
	oldDirs, legacy, err := prepareDataDir(cfg.dataDir)
	if err != nil {
		return nil, err
	}
	journal, err := openJournal(cfg)
	if err != nil {
		return nil, err
	}
	r := &router{cfg: cfg, shards: make([]*engine, n), journal: journal, replPos: make(map[string]durable.ReplPosition)}
	for i := range r.shards {
		r.shards[i] = newEngine(cfg, i, journal, newPolicy(cfg, journal))
	}
	if legacy {
		err = r.importShardLayout(oldDirs)
	} else {
		err = r.recover()
	}
	if err != nil {
		_ = r.Close()
		return nil, fmt.Errorf("reef: recovering %s: %w", cfg.dataDir, err)
	}
	return r, nil
}

// recover replays the journal's recovery run — the snapshot's records,
// then every intact WAL record in append order — then arms the journal.
// The journal is still disarmed during replay, so replayed mutations are
// not re-logged.
func (r *router) recover() error {
	run, err := r.journal.Load()
	if err != nil {
		return err
	}
	if err := r.replay(run, r.setReplPosition); err != nil {
		return err
	}
	r.arm()
	return nil
}

// importShardLayout moves a directory written in the per-shard layout
// into the root journal, once: every old shard journal replays routed to
// the shards its users hash to now, the node starts from the merge of
// the old position tables (a shard that lost a tail holds the whole node
// back rather than the last one read winning), and one root snapshot
// makes the import durable. Only then do shards.json and the shard-<i>/
// directories go: a crash before shards.json is removed re-runs the
// import from the untouched old journals, a crash after it leaves only
// garbage that the next open sweeps.
func (r *router) importShardLayout(oldDirs []string) error {
	tables := make([]map[string]durable.ReplPosition, len(oldDirs))
	for i, dir := range oldDirs {
		table := make(map[string]durable.ReplPosition)
		tables[i] = table
		run, err := loadShardSource(dir)
		if err == nil {
			err = r.replay(run, func(p durable.ReplPosition) { table[p.Source] = p })
		}
		if err != nil {
			return fmt.Errorf("importing %s: %w", dir, err)
		}
	}
	for _, p := range mergeReplPositions(tables) {
		r.setReplPosition(p)
	}
	r.arm()
	if err := r.journal.Snapshot(); err != nil {
		return fmt.Errorf("snapshotting the imported state: %w", err)
	}
	if err := os.Remove(filepath.Join(r.cfg.dataDir, shardMetaFile)); err != nil {
		return fmt.Errorf("retiring %s: %w", shardMetaFile, err)
	}
	return removeShardDirs(r.cfg.dataDir)
}

// arm turns on live journaling; recovery (or the import) must be done.
func (r *router) arm() {
	r.journal.Arm(r.captureState, journalSnapshotEvery(r.cfg))
}

// captureState assembles the node's full durable state for a snapshot.
// The journal holds its exclusive lock while calling it, so no mutation
// is in flight on any shard: the capture is one consistent cut of the
// node's operation stream.
func (r *router) captureState() (*durable.State, error) {
	st := &durable.State{Version: 1}
	for _, e := range r.shards {
		e.capture(st)
	}
	sort.Slice(st.Cursors, func(i, j int) bool {
		a, b := st.Cursors[i], st.Cursors[j]
		return a.User < b.User || a.User == b.User && a.ID < b.ID
	})
	st.ReplPositions = r.positions()
	return st, nil
}

// setReplPosition records how far this node has applied one source's
// replication stream.
func (r *router) setReplPosition(p durable.ReplPosition) {
	r.mu.Lock()
	r.replPos[p.Source] = p
	r.mu.Unlock()
}

// positions lists the node's replication positions, sorted by source.
func (r *router) positions() []durable.ReplPosition {
	r.mu.Lock()
	defer r.mu.Unlock()
	return mergeReplPositions([]map[string]durable.ReplPosition{r.replPos})
}

// --- replay ---------------------------------------------------------------
//
// One replay serves recovery, the per-shard-layout import, replica
// apply and resync (ApplyReplicated, ApplyReplicatedCut): a snapshot and
// a resync cut are runs of the same records the WAL holds, so each
// record is decoded and handed straight to the shard its user hashes to
// at the count the node opened with. Replay never journals. Recovery and
// the import run on a disarmed journal, and replica apply runs inside
// Journal.Ingest, where a nested Record or Ingest would self-deadlock on
// the journal lock.

// replay applies a recovery run — a snapshot's records, then the WAL
// tail — in order. pos receives the replication positions.
func (r *router) replay(run []durable.Record, pos func(durable.ReplPosition)) error {
	for i, rec := range run {
		if err := r.replayRecord(rec, pos); err != nil {
			return fmt.Errorf("replaying record %d (%v): %w", i, rec.Op, err)
		}
	}
	return nil
}

// replayRecord re-applies one record, decoded by its op's typed decoder.
func (r *router) replayRecord(rec durable.Record, pos func(durable.ReplPosition)) error {
	switch rec.Op {
	case durable.OpClicks:
		p, err := durable.DecodeClicks(rec)
		if err != nil {
			return err
		}
		return r.replayClickStore(p.Clicks, nil)
	case durable.OpFlag:
		p, err := durable.DecodeFlag(rec)
		if err != nil {
			return err
		}
		return r.replayClickStore(nil, map[string]int{p.Host: p.Flag})
	case durable.OpSubscribe, durable.OpUnsubscribe:
		p, err := durable.DecodeSubscription(rec)
		if err != nil {
			return err
		}
		return r.replaySub(p, rec.Op == durable.OpUnsubscribe)
	case durable.OpCursorAck:
		p, err := durable.DecodeCursorAck(rec)
		if err != nil {
			return err
		}
		r.shard(p.User).restoreCursor(p.User, p.ID, p.Seq)
	case durable.OpReplPosition:
		p, err := durable.DecodeReplPosition(rec)
		if err != nil {
			return err
		}
		pos(p)
	case durable.OpPendingAdd:
		p, err := durable.DecodePendingAdd(rec)
		if err != nil {
			return err
		}
		return r.restorePending(p)
	case durable.OpPendingSeq:
		seq, err := durable.DecodePendingSeq(rec)
		if err != nil {
			return err
		}
		for _, e := range r.shards {
			e.pending.setSeq(seq)
		}
	case durable.OpPendingTake:
		p, err := durable.DecodePendingTake(rec)
		if err != nil {
			return err
		}
		e := r.shard(p.User)
		taken, ok := e.pending.take(p.User, p.ID)
		switch {
		case !ok:
		case p.Accepted:
			return e.apply(p.User, taken)
		case taken.FeedURL != "":
			// A replayed reject re-drives the negative feedback the live
			// path gave the recommender, at the recorded decision time.
			e.policy.reject(p.User, taken.FeedURL, p.At)
		}
	default:
		return fmt.Errorf("unexpected op %v", rec.Op)
	}
	return nil
}

// replayClickStore re-applies what the server policy journals itself: a
// click batch, split across the shards its users hash to, and server
// classification flags, set on every shard's store (an ad server is an ad
// server for every user, and the store ORs flags in, so redelivery is
// safe). Both are the bare mutations live ingestion and the pipeline
// journal, so derived state rebuilds exactly as it was built. A
// deployment whose policy journals neither (the distributed one) refuses
// them: meeting one in its log is corruption, not data.
func (r *router) replayClickStore(batch []attention.Click, flags map[string]int) error {
	if _, ok := r.shards[0].policy.(*serverPolicy); !ok {
		return fmt.Errorf("clicks or flags, which this deployment does not persist")
	}
	for i, g := range byShard(batch, len(r.shards), func(c attention.Click) string { return c.User }) {
		if len(g) > 0 {
			serverOf(r.shards[i]).ApplyClicks(g)
		}
	}
	for _, e := range r.shards {
		for host, f := range flags {
			serverOf(e).Store().SetFlag(host, store.Flag(f))
		}
	}
	return nil
}

// replaySub re-applies a recovered subscribe, or unsubscribe, on the
// user's shard. A reliable subscription's queue registers first, as on
// the live path, so no event published meanwhile slips past it.
func (r *router) replaySub(st durable.SubscriptionState, unsubscribe bool) error {
	rec, err := fromDurableSub(st)
	if err != nil {
		return err
	}
	e := r.shard(st.User)
	if unsubscribe {
		rec.Kind = recommend.KindUnsubscribeFeed
	} else if st.Delivery != nil {
		e.deliveries.Register(st.User, subscriptionID(rec), deliveryConfig(*st.Delivery, e.cfg))
	}
	return e.apply(st.User, rec)
}

// restorePending re-queues a recovered pending recommendation under its
// original ID in the ledger of its user's shard.
func (r *router) restorePending(p durable.PendingAddPayload) error {
	rec, err := fromDurableRec(p.Rec)
	if err != nil {
		return err
	}
	r.shard(p.User).pending.restore(p.User, p.ID, p.Seq, rec)
	return nil
}

// byShard splits items into per-shard groups by the user each belongs to.
func byShard[T any](items []T, n int, user func(T) string) [][]T {
	if n == 1 {
		return [][]T{items}
	}
	groups := make([][]T, n)
	for _, it := range items {
		i := shardFor(user(it), n)
		groups[i] = append(groups[i], it)
	}
	return groups
}

// shard returns the engine serving a user.
func (r *router) shard(user string) *engine {
	return r.shards[shardFor(user, len(r.shards))]
}

// ShardCount implements Sharder.
func (r *router) ShardCount() int { return len(r.shards) }

func (r *router) checkOpen(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	return nil
}

// markClosed flips the closed flag; it reports false if the deployment
// was already closed.
func (r *router) markClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.closed = true
	return true
}

// Close implements Deployment. Idempotent. Buffered WAL appends are
// flushed; no final snapshot is taken (reopening replays the WAL, which
// exercises the same recovery path a crash would).
func (r *router) Close() error {
	return r.shutdown((*durable.Journal).Close)
}

// Crash closes the deployment WITHOUT flushing buffered WAL appends — the
// fault-injection hook behind the crash-recovery tests: everything since
// the last sync is lost, exactly as if the process had died.
func (r *router) Crash() error {
	return r.shutdown((*durable.Journal).Crash)
}

// shutdown tears every shard down and ends the journal with stop.
func (r *router) shutdown(stop func(*durable.Journal) error) error {
	if !r.markClosed() {
		return nil
	}
	for _, e := range r.shards {
		e.teardown()
	}
	return stop(r.journal)
}

// StorageInfo implements Persister: the node's one journal, plus the
// shard count.
func (r *router) StorageInfo(ctx context.Context) (StorageInfo, error) {
	if err := r.checkOpen(ctx); err != nil {
		return StorageInfo{}, err
	}
	info := toStorageInfo(r.journal.Info())
	info.ShardCount = len(r.shards)
	return info, nil
}

// Snapshot implements Persister: the node's full state, every shard
// captured under the one journal lock, becomes the new recovery baseline
// and the WAL restarts.
func (r *router) Snapshot(ctx context.Context) (StorageInfo, error) {
	if err := r.checkOpen(ctx); err != nil {
		return StorageInfo{}, err
	}
	if err := r.journal.Snapshot(); err != nil {
		return StorageInfo{}, err
	}
	return r.StorageInfo(ctx)
}

// IngestClicks implements Deployment: the whole batch is validated up
// front — so an invalid click cannot leave it half-ingested and a client
// retrying a corrected batch does not double-count — then each shard's
// click policy analyzes its users' clicks, the shards concurrently. It
// returns how many clicks were analyzed.
func (r *router) IngestClicks(ctx context.Context, clicks []Click) (int, error) {
	if err := r.checkOpen(ctx); err != nil {
		return 0, err
	}
	for _, cl := range clicks {
		if err := validateUser(cl.User); err != nil {
			return 0, err
		}
		if cl.URL == "" {
			return 0, fmt.Errorf("%w: click with empty URL", ErrInvalidArgument)
		}
	}
	n := len(r.shards)
	if n == 1 {
		return r.shards[0].policy.ingest(ctx, r.shards[0], clicks)
	}
	groups := byShard(clicks, n, func(c Click) string { return c.User })
	return sumFanOut(n, func(i int) (int, error) {
		if len(groups[i]) == 0 {
			return 0, nil
		}
		return r.shards[i].policy.ingest(ctx, r.shards[i], groups[i])
	})
}

// PublishEvent implements Deployment: a batch of one.
func (r *router) PublishEvent(ctx context.Context, ev Event) (int, error) {
	return r.PublishBatchCounts(ctx, []Event{ev}, nil)
}

// PublishBatch implements Deployment.
func (r *router) PublishBatch(ctx context.Context, evs []Event) (int, error) {
	return r.PublishBatchCounts(ctx, evs, nil)
}

// PublishBatchCounts implements BatchCountPublisher: the events convert
// at the edge and go through publishEvents.
func (r *router) PublishBatchCounts(ctx context.Context, evs []Event, counts []int) (int, error) {
	return r.publishEvents(ctx, toPubsubEvents(evs), counts)
}

// publishEvents is the one publish body, and the stream's entry
// (builtin.Entry.Publish): the batch is validated whole, stamped once and
// fanned out to every shard's broker concurrently; it returns the total
// of local deliveries. Each subscriber lives on one shard, so the shards
// count into private slices summed after the fan-out. With
// WithFeedPublisher the events go one by one to the caller-owned
// publisher, whose deliveries are not observable from here: success
// reports 0.
func (r *router) publishEvents(ctx context.Context, pevs []pubsub.Event, counts []int) (int, error) {
	if err := r.checkOpen(ctx); err != nil {
		return 0, err
	}
	if counts != nil && len(counts) != len(pevs) {
		return 0, fmt.Errorf("%w: counts has %d entries for %d events", ErrInvalidArgument, len(counts), len(pevs))
	}
	if err := checkEvents(pevs); err != nil {
		return 0, err
	}
	if r.cfg.feedPublisher != nil {
		for _, pev := range pevs {
			if err := r.cfg.feedPublisher.Publish(ctx, pev); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	n := len(r.shards)
	if n == 1 {
		return r.shards[0].broker.PublishBatchCounts(ctx, pevs, counts)
	}
	stampEvents(pevs, r.cfg.clock.Now)
	perShard := make([][]int, n)
	total, err := sumFanOut(n, func(i int) (int, error) {
		if counts != nil {
			perShard[i] = make([]int, len(pevs))
		}
		return r.shards[i].broker.PublishBatchCounts(ctx, pevs, perShard[i])
	})
	for _, shard := range perShard {
		for i, v := range shard {
			counts[i] += v
		}
	}
	return total, err
}

// Subscriptions implements Deployment.
func (r *router) Subscriptions(ctx context.Context, user string) ([]Subscription, error) {
	if err := r.checkOpen(ctx); err != nil {
		return nil, err
	}
	if err := validateUser(user); err != nil {
		return nil, err
	}
	return r.shard(user).subscriptions(user), nil
}

// subscribeArgs validates a Subscribe call and resolves its options.
func (r *router) subscribeArgs(ctx context.Context, user, feedURL string, opts []SubscribeOption) (SubscribeConfig, error) {
	if err := r.checkOpen(ctx); err != nil {
		return SubscribeConfig{}, err
	}
	if err := validateUser(user); err != nil {
		return SubscribeConfig{}, err
	}
	if err := validateFeedURL(feedURL); err != nil {
		return SubscribeConfig{}, err
	}
	return NewSubscribeConfig(opts...)
}

// Unsubscribe implements Deployment.
func (r *router) Unsubscribe(ctx context.Context, user, feedURL string) error {
	if err := r.checkOpen(ctx); err != nil {
		return err
	}
	if err := validateUser(user); err != nil {
		return err
	}
	if err := validateFeedURL(feedURL); err != nil {
		return err
	}
	return r.shard(user).unsubscribe(user, feedURL)
}

// Recommendations implements Deployment: recommendations the user's
// shard has ready move into that shard's pending ledger, where they keep
// their ID until accepted or rejected.
func (r *router) Recommendations(ctx context.Context, user string) ([]Recommendation, error) {
	if err := r.checkOpen(ctx); err != nil {
		return nil, err
	}
	if err := validateUser(user); err != nil {
		return nil, err
	}
	return r.shard(user).recommendations(user)
}

// AcceptRecommendation implements Deployment.
func (r *router) AcceptRecommendation(ctx context.Context, user, id string) error {
	if err := r.checkOpen(ctx); err != nil {
		return err
	}
	if err := validateUser(user); err != nil {
		return err
	}
	return r.shard(user).acceptRecommendation(user, id)
}

// RejectRecommendation implements Deployment: the recommendation is
// dropped and, for feed recommendations, negative feedback reaches the
// recommender of the user's shard.
func (r *router) RejectRecommendation(ctx context.Context, user, id string) error {
	if err := r.checkOpen(ctx); err != nil {
		return err
	}
	if err := validateUser(user); err != nil {
		return err
	}
	return r.shard(user).rejectRecommendation(user, id)
}

// samples snapshots every shard's series and combines them by each
// family's merge rule, adding the shard count.
func (r *router) samples() (total []metrics.Sample, perShard [][]metrics.Sample) {
	perShard = make([][]metrics.Sample, len(r.shards))
	for i, e := range r.shards {
		perShard[i] = e.samples()
	}
	total = metrics.Combine(perShard...)
	return append(total, metrics.Sample{Def: metrics.Shards, Value: float64(len(r.shards))}), perShard
}

// flatStats is the Stats view of a Samples result.
func flatStats(samples []metrics.Sample, err error) (Stats, error) {
	if err != nil {
		return nil, err
	}
	return metrics.Flat(samples), nil
}

// PollFeeds polls every due feed through each shard's WAIF proxy,
// pushing new items to that shard's subscribers. It returns feeds
// polled and items published, summed across shards.
func (r *router) PollFeeds(ctx context.Context, now time.Time) (polled, published int) {
	type counts struct{ polled, published int }
	results, _ := fanOut(len(r.shards), func(i int) (counts, error) {
		p, pub := r.shards[i].proxy.PollDue(ctx, now)
		return counts{p, pub}, nil
	})
	for _, c := range results {
		polled += c.polled
		published += c.published
	}
	return polled, published
}

// Sidebar returns the user's displayed events, oldest first.
func (r *router) Sidebar(user string) []SidebarItem {
	bar, ok := r.shard(user).sidebar(user)
	if !ok {
		return nil
	}
	return toSidebarItems(bar.Items())
}

// fanOut runs fn for every shard concurrently — shard 0 on the calling
// goroutine, the rest on their own — and returns the per-shard results.
// With one shard it is a direct call, so the single-shard fast path pays
// no goroutine or slice cost.
func fanOut[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n == 1 {
		v, err := fn(0)
		return []T{v}, err
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i)
		}(i)
	}
	out[0], errs[0] = fn(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// sumFanOut fans a counting operation out to every shard and totals
// the per-shard results (publish delivery counts).
func sumFanOut(n int, fn func(i int) (int, error)) (int, error) {
	counts, err := fanOut(n, fn)
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, err
}

// stampEvents assigns IDs and timestamps before a fan-out, so every
// shard sees the same event identity and no shard mutates the shared
// batch slice concurrently.
func stampEvents(evs []pubsub.Event, now func() time.Time) {
	for i := range evs {
		if evs[i].ID == 0 {
			evs[i].ID = pubsub.NextEventID()
		}
		if evs[i].Published.IsZero() {
			evs[i].Published = now()
		}
	}
}

// --- the per-shard layout of older releases -------------------------------
//
// Releases before the one-journal layout nested one journal per shard
// when the count was above 1, pinned by a meta file:
//
//	<dataDir>/shards.json        {"version":1,"shards":N}
//	<dataDir>/shard-0/wal-....log
//	<dataDir>/shard-0/snap-....json
//	<dataDir>/shard-1/...
//
// Such a directory is imported once (importShardLayout); a directory at
// one shard always had the root layout and opens as it is.

// shardMetaFile marks a directory still in the per-shard layout.
const shardMetaFile = "shards.json"

// prepareDataDir readies dataDir before its root journal opens. With
// shards.json present it reports the shard-<i>/ journals to import,
// after clearing any root WAL and snapshot files: while shards.json
// exists the old journals are the truth, and root files can only be the
// partial output of an interrupted import. Without it, leftover
// shard-<i>/ directories are the garbage of a finished import and are
// swept.
func prepareDataDir(dataDir string) (oldDirs []string, legacy bool, err error) {
	if dataDir == "" {
		return nil, false, nil
	}
	_, err = os.Stat(filepath.Join(dataDir, shardMetaFile))
	if os.IsNotExist(err) {
		return nil, false, removeShardDirs(dataDir)
	}
	if err != nil {
		return nil, false, fmt.Errorf("reef: reading %s: %w", shardMetaFile, err)
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, false, fmt.Errorf("reef: reading data dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && (strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-")) {
			if err := os.Remove(filepath.Join(dataDir, name)); err != nil {
				return nil, false, fmt.Errorf("reef: clearing stale %s: %w", name, err)
			}
		}
	}
	return listShardDirs(dataDir), true, nil
}

// listShardDirs returns the shard-<i> subdirectories present under
// dataDir.
func listShardDirs(dataDir string) []string {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil
	}
	var dirs []string
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), "shard-")
		if !e.IsDir() || !ok {
			continue
		}
		if i, err := strconv.Atoi(rest); err == nil && i >= 0 {
			dirs = append(dirs, filepath.Join(dataDir, e.Name()))
		}
	}
	return dirs
}

// removeShardDirs deletes every shard-<i> subdirectory of dataDir.
func removeShardDirs(dataDir string) error {
	for _, d := range listShardDirs(dataDir) {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("reef: removing %s: %w", d, err)
		}
	}
	return nil
}

// loadShardSource opens one old-layout journal directory just long
// enough to read its recovery run (the snapshot's records plus the
// intact WAL tail, torn tail truncated exactly as normal recovery would).
func loadShardSource(dir string) ([]durable.Record, error) {
	b, err := durable.OpenFile(dir, durable.FileOptions{Sync: durable.SyncNever})
	if err != nil {
		return nil, err
	}
	run, err := b.Load()
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	return run, err
}
