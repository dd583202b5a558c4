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
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/routing"
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
// (see NewCentralized). combos rejects the option combinations a shard
// count cannot serve; it runs before anything touches the data
// directory, so a rejected constructor leaves no trace.
func openRouter(cfg config, newPolicy func(config, *durable.Journal) clickPolicy, combos func(n int) error) (*router, error) {
	n := cfg.shards
	if n < 1 {
		return nil, fmt.Errorf("%w: WithShards(%d): shard count must be at least 1", ErrInvalidArgument, n)
	}
	if err := combos(n); err != nil {
		return nil, err
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

// oneFeedPublisher rejects WithFeedPublisher on more than one shard:
// every shard's WAIF proxy would poll the feeds its users track and
// publish each new item to the one caller-owned publisher — duplicate
// deliveries for any feed followed from two shards.
func oneFeedPublisher(cfg config, n int) error {
	if n > 1 && cfg.feedPublisher != nil {
		return fmt.Errorf("%w: WithFeedPublisher cannot fan in from more than one shard; use WithShards(1)", ErrInvalidArgument)
	}
	return nil
}

// recover replays the journal's recovery state — the snapshot baseline,
// then every intact WAL record in append order — with each operation
// routed to the shard its user hashes to, then arms the journal. The
// journal is still disarmed during replay, so replayed mutations are not
// re-logged.
func (r *router) recover() error {
	st, tail, err := r.journal.Load()
	if err != nil {
		return err
	}
	if err := r.routedReplay().run(st, tail); err != nil {
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
	rep := r.routedReplay()
	tables := make([]map[string]durable.ReplPosition, len(oldDirs))
	for i, dir := range oldDirs {
		table := make(map[string]durable.ReplPosition)
		tables[i] = table
		rep.setReplPosition = func(p durable.ReplPosition) { table[p.Source] = p }
		st, tail, err := loadShardSource(dir)
		if err == nil {
			err = rep.run(st, tail)
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

// routedReplay builds replay hooks that dispatch each recovered
// operation to the engine its user hashes to. Classification flags are
// global knowledge (an ad server is an ad server for every user), so
// they broadcast to every shard's store; click batches split per user;
// replication positions land in the node's one table. A policy that
// journals no clicks or flags leaves those hooks nil.
func (r *router) routedReplay() durableReplay {
	n := len(r.shards)
	reps := make([]durableReplay, n)
	for i, e := range r.shards {
		reps[i] = e.replay()
	}
	if n == 1 {
		dr := reps[0]
		dr.setReplPosition = r.setReplPosition
		return dr
	}
	at := func(user string) durableReplay { return reps[shardFor(user, n)] }
	dr := durableReplay{
		applySub: func(rec recommend.Recommendation) error { return at(rec.User).applySub(rec) },
		restorePending: func(user, id string, seq int64, rec recommend.Recommendation) {
			at(user).restorePending(user, id, seq, rec)
		},
		setPendingSeq: func(seq int64) {
			for i := range reps {
				reps[i].setPendingSeq(seq)
			}
		},
		takePending: func(user, id string) (recommend.Recommendation, bool) {
			return at(user).takePending(user, id)
		},
		acceptRec: func(user string, rec recommend.Recommendation) error {
			return at(user).acceptRec(user, rec)
		},
		rejectFeedback: func(user, feedURL string, t time.Time) {
			at(user).rejectFeedback(user, feedURL, t)
		},
		registerDelivery: func(user, id string, ds durable.DeliveryState) {
			at(user).registerDelivery(user, id, ds)
		},
		ackCursor:       func(user, id string, seq int64) { at(user).ackCursor(user, id, seq) },
		setReplPosition: r.setReplPosition,
	}
	if reps[0].applyClicks != nil {
		dr.applyClicks = func(batch []attention.Click) error {
			for i, g := range byShard(batch, n, func(c attention.Click) string { return c.User }) {
				if len(g) == 0 {
					continue
				}
				if err := reps[i].applyClicks(g); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if reps[0].setFlag != nil {
		dr.setFlag = func(host string, f int) {
			for i := range reps {
				reps[i].setFlag(host, f)
			}
		}
	}
	return dr
}

// byShard splits items into per-shard groups by the user each belongs to.
func byShard[T any](items []T, n int, user func(T) string) [][]T {
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

// PublishBatchCounts implements BatchCountPublisher and is the one
// publish body: the batch is validated whole, stamped once and fanned
// out to every shard's broker concurrently; it returns the total of local
// deliveries. Each subscriber lives on one shard, so the shards count
// into private slices summed after the fan-out. With WithFeedPublisher
// the events go one by one to the caller-owned publisher, whose
// deliveries are not observable from here: success reports 0.
func (r *router) PublishBatchCounts(ctx context.Context, evs []Event, counts []int) (int, error) {
	if err := r.checkOpen(ctx); err != nil {
		return 0, err
	}
	if counts != nil && len(counts) != len(evs) {
		return 0, fmt.Errorf("%w: counts has %d entries for %d events", ErrInvalidArgument, len(counts), len(evs))
	}
	pevs, err := toPubsubEvents(evs)
	if err != nil {
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

// shardStats snapshots every shard's counters.
func (r *router) shardStats() []Stats {
	out := make([]Stats, len(r.shards))
	for i, e := range r.shards {
		out[i] = e.stats()
	}
	return out
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

// mergeStats merges per-shard stat snapshots with the shared rules
// (internal/routing.Merge): counters sum, ".max" takes the maximum,
// ".mean" becomes the ".count"-weighted mean.
func mergeStats(shards []Stats) Stats {
	return routing.Merge(shards)
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
		if e.Type().IsRegular() &&
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") ||
				strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json")) {
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
// enough to read its recovery state (snapshot baseline plus intact WAL
// tail, torn tail truncated exactly as normal recovery would).
func loadShardSource(dir string) (*durable.State, []durable.Record, error) {
	b, err := durable.OpenFile(dir, durable.FileOptions{Sync: durable.SyncNever})
	if err != nil {
		return nil, nil, err
	}
	st, tail, err := b.Load()
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return st, tail, nil
}
