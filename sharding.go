package reef

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
// user→node scheme). The hash is part of the on-disk contract: a
// user's journal records live in shard-<shardFor(user)>/, so it must
// stay stable across releases (changing it requires the same migration
// path as changing the shard count).
func shardFor(user string, n int) int {
	return routing.UserSlot(user, n)
}

// resolveShards validates an explicit WithShards setting; unset returns
// 0, meaning "adopt the data directory's count, default 1" (resolved in
// planShards). Leaving the option off must never re-shard an existing
// directory.
func resolveShards(cfg config) (int, error) {
	if !cfg.shardsSet {
		return 0, nil
	}
	if cfg.shards < 1 {
		return 0, fmt.Errorf("%w: WithShards(%d): shard count must be at least 1", ErrInvalidArgument, cfg.shards)
	}
	return cfg.shards, nil
}

// router is the user→shard router both deployments are built on: it
// owns the WithShards(n) engines and the open/closed state, and serves
// every verb whose only deployment-specific part is the shards' click
// policy. Users partition across shards by a stable hash, so every
// user-addressed call (clicks, subscriptions, recommendations, sidebar)
// touches exactly one shard's lock domains, while publishes fan out to
// all shards concurrently. Each shard journals to its own directory and
// recovers in parallel with its siblings; a single shard behaves — in
// memory and on disk — exactly like the pre-sharding deployment.
type router struct {
	cfg    config
	shards []*engine

	mu     sync.Mutex
	closed bool
}

// openRouter builds the shards, each with the click policy newPolicy
// makes over its journal, then recovers or migrates the data directory
// before arming the journals (see NewCentralized).
//
// combos rejects the option combinations a shard count cannot serve. It
// runs on the explicit count BEFORE planShards may touch the data
// directory (fresh-dir meta write, migration cleanup), and again on an
// adopted count — the adopt path makes no writes, so a rejected
// constructor leaves no trace.
func openRouter(cfg config, newPolicy func(config, *durable.Journal) clickPolicy, combos func(n int) error) (*router, error) {
	n, err := resolveShards(cfg)
	if err != nil {
		return nil, err
	}
	if err := combos(n); err != nil {
		return nil, err
	}
	plan, err := planShards(cfg.dataDir, n)
	if err != nil {
		return nil, err
	}
	n = plan.n
	if err := combos(n); err != nil {
		return nil, err
	}
	r := &router{cfg: cfg, shards: make([]*engine, n)}
	for i := range r.shards {
		dir := ""
		if plan.dirs != nil {
			dir = plan.dirs[i]
		}
		journal, err := openShardJournal(cfg, dir)
		if err != nil {
			r.teardownPartial(i)
			return nil, err
		}
		r.shards[i] = newEngine(cfg, i, journal, newPolicy(cfg, journal))
	}
	fail := func(err error) (*router, error) {
		r.teardownPartial(n)
		return nil, fmt.Errorf("reef: recovering %s: %w", cfg.dataDir, err)
	}
	if plan.migrate {
		if err := r.migrateFrom(plan); err != nil {
			return fail(err)
		}
		return r, nil
	}
	if _, err := fanOut(n, func(i int) (struct{}, error) {
		return struct{}{}, r.shards[i].recover()
	}); err != nil {
		return fail(err)
	}
	for _, e := range r.shards {
		e.arm()
	}
	if err := ensureShardLayout(cfg.dataDir, n); err != nil {
		return fail(err)
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

// teardownPartial closes the first k constructed shards (constructor
// error paths).
func (r *router) teardownPartial(k int) {
	for i := 0; i < k; i++ {
		if r.shards[i] != nil {
			r.shards[i].teardown()
			_ = r.shards[i].journal.Close()
		}
	}
}

// migrateFrom replays an old shard layout's journals through the new
// engines — every operation routed to the shard its user now hashes to —
// then snapshots each shard so the new layout is durable before the old
// one is retired.
func (r *router) migrateFrom(plan shardPlan) error {
	rep := r.routedReplay()
	// Each old directory's log holds its own replication positions; the
	// new shards start from their merge, so a directory that lost a tail
	// holds every new shard back rather than the last one read winning.
	tables := make([]map[string]durable.ReplPosition, len(plan.oldDirs))
	for i, dir := range plan.oldDirs {
		table := make(map[string]durable.ReplPosition)
		tables[i] = table
		rep.setReplPosition = func(p durable.ReplPosition) { table[p.Source] = p }
		st, tail, err := loadShardSource(dir)
		if err != nil {
			return fmt.Errorf("migrating %s: %w", dir, err)
		}
		if err := rep.run(st, tail); err != nil {
			return fmt.Errorf("migrating %s: %w", dir, err)
		}
	}
	for _, p := range mergeReplPositions(tables) {
		for _, e := range r.shards {
			e.setReplPosition(p)
		}
	}
	for _, e := range r.shards {
		e.arm()
	}
	if _, err := fanOut(len(r.shards), func(i int) (struct{}, error) {
		return struct{}{}, r.shards[i].journal.Snapshot()
	}); err != nil {
		return fmt.Errorf("snapshotting migrated shards: %w", err)
	}
	return finishMigration(r.cfg.dataDir, plan)
}

// routedReplay builds replay hooks that dispatch each recovered
// operation to the engine its user hashes to. Classification flags are
// global knowledge (an ad server is an ad server for every user), so
// they broadcast to every shard's store; click batches split per user.
// A policy that journals no clicks or flags leaves those hooks nil.
func (r *router) routedReplay() durableReplay {
	n := len(r.shards)
	reps := make([]durableReplay, n)
	for i, e := range r.shards {
		reps[i] = e.replay()
	}
	if n == 1 {
		return reps[0]
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
		ackCursor: func(user, id string, seq int64) { at(user).ackCursor(user, id, seq) },
		setReplPosition: func(p durable.ReplPosition) {
			for i := range reps {
				reps[i].setReplPosition(p)
			}
		},
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
// flushed on every shard; no final snapshot is taken (reopening replays
// the WALs, which exercises the same recovery path a crash would).
func (r *router) Close() error {
	return r.shutdown((*durable.Journal).Close)
}

// Crash closes the deployment WITHOUT flushing buffered WAL appends — the
// fault-injection hook behind the crash-recovery tests: everything since
// the last sync is lost on every shard, exactly as if the process had
// died.
func (r *router) Crash() error {
	return r.shutdown((*durable.Journal).Crash)
}

// shutdown tears every shard down and ends its journal with stop.
func (r *router) shutdown(stop func(*durable.Journal) error) error {
	if !r.markClosed() {
		return nil
	}
	var firstErr error
	for _, e := range r.shards {
		e.teardown()
		if err := stop(e.journal); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// StorageInfo implements Persister: per-shard backend states merge into
// one summary with a per-shard breakdown (see StorageInfo.Shards).
func (r *router) StorageInfo(ctx context.Context) (StorageInfo, error) {
	if err := r.checkOpen(ctx); err != nil {
		return StorageInfo{}, err
	}
	infos := make([]durable.Info, len(r.shards))
	for i, e := range r.shards {
		infos[i] = e.journal.Info()
	}
	return mergeStorageInfo(r.cfg.dataDir, infos), nil
}

// Snapshot implements Persister: every shard captures its full state as
// its new recovery baseline and restarts its WAL, all shards in
// parallel. Each shard's snapshot is a consistent cut of that shard's
// operation stream — users never span shards, so no cross-shard
// operation can straddle the handoff.
func (r *router) Snapshot(ctx context.Context) (StorageInfo, error) {
	if err := r.checkOpen(ctx); err != nil {
		return StorageInfo{}, err
	}
	if _, err := fanOut(len(r.shards), func(i int) (struct{}, error) {
		return struct{}{}, r.shards[i].journal.Snapshot()
	}); err != nil {
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

// mergeStorageInfo aggregates per-shard backend info into the public
// form: counters sum, Generation is the highest shard generation,
// TornTail ORs, and the per-shard breakdown rides along in Shards when
// there is more than one.
func mergeStorageInfo(dataDir string, infos []durable.Info) StorageInfo {
	if len(infos) == 1 {
		out := toStorageInfo(infos[0])
		out.ShardCount = 1
		return out
	}
	agg := StorageInfo{
		Backend:    infos[0].Kind,
		Dir:        dataDir,
		Sync:       infos[0].Sync,
		ShardCount: len(infos),
		Shards:     make([]StorageInfo, 0, len(infos)),
	}
	for _, in := range infos {
		si := toStorageInfo(in)
		agg.Shards = append(agg.Shards, si)
		agg.WALRecords += si.WALRecords
		agg.WALBytes += si.WALBytes
		agg.Snapshots += si.Snapshots
		agg.RecoveredRecords += si.RecoveredRecords
		if si.Generation > agg.Generation {
			agg.Generation = si.Generation
		}
		if si.TornTail {
			agg.TornTail = true
		}
		if si.LastSnapshot.After(agg.LastSnapshot) {
			agg.LastSnapshot = si.LastSnapshot
		}
	}
	return agg
}

// --- on-disk layout -----------------------------------------------------
//
// A single-shard data directory keeps the layout every release so far
// has written: wal-<gen>.log and snap-<gen>.json at the root. A sharded
// directory nests one such journal per shard:
//
//	<dataDir>/shards.json        {"version":1,"shards":N}
//	<dataDir>/shard-0/wal-....log
//	<dataDir>/shard-0/snap-....json
//	<dataDir>/shard-1/...
//
// shards.json exists only on sharded directories, so a legacy (or
// shards=1) directory is recognized by its root journal files alone and
// an old binary can still open a shards=1 directory byte-for-byte.

// shardMetaFile pins a sharded directory's shard count.
const shardMetaFile = "shards.json"

type shardMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// shardDirs names the per-shard journal directories for count n: the
// root itself for 1, shard-<i> subdirectories otherwise.
func shardDirs(dataDir string, n int) []string {
	if n == 1 {
		return []string{dataDir}
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(dataDir, "shard-"+strconv.Itoa(i))
	}
	return dirs
}

// hasJournalFiles reports whether dir holds root-level WAL or snapshot
// files (the single-shard layout).
func hasJournalFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() &&
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") ||
				strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json")) {
			return true
		}
	}
	return false
}

// listShardDirs returns the shard-<i> subdirectories present under
// dataDir and the highest index + 1 (0 when there are none).
func listShardDirs(dataDir string) (dirs []string, count int) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, 0
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "shard-")
		if !ok {
			continue
		}
		i, err := strconv.Atoi(rest)
		if err != nil || i < 0 {
			continue
		}
		dirs = append(dirs, filepath.Join(dataDir, e.Name()))
		if i+1 > count {
			count = i + 1
		}
	}
	return dirs, count
}

// detectShardCount reads the directory's current layout: the meta
// file's count when present, 1 when root journal files exist (legacy
// single-shard layout — authoritative even when stale shard dirs from
// an interrupted migration linger), the shard-dir count otherwise, and
// 0 for a fresh or empty directory.
func detectShardCount(dataDir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dataDir, shardMetaFile))
	if err == nil {
		var m shardMeta
		if jerr := json.Unmarshal(data, &m); jerr != nil || m.Shards < 1 {
			return 0, fmt.Errorf("reef: corrupt %s in %s", shardMetaFile, dataDir)
		}
		return m.Shards, nil
	}
	if !os.IsNotExist(err) {
		return 0, fmt.Errorf("reef: reading %s: %w", shardMetaFile, err)
	}
	if hasJournalFiles(dataDir) {
		return 1, nil
	}
	_, count := listShardDirs(dataDir)
	return count, nil
}

// shardPlan is the resolved layout decision for one open.
type shardPlan struct {
	n    int
	dirs []string // new-layout journal dirs (nil without a data dir)
	// migrate is set when the directory holds oldN shards' worth of
	// data that must be replayed into the n-shard layout.
	migrate bool
	oldN    int
	oldDirs []string
}

// planShards decides how to open dataDir with n shards (0 = WithShards
// unset: adopt the directory's existing count, default 1 — a restart
// without the option never migrates). Re-sharding is supported across
// the single-shard boundary in both directions (the legacy upgrade 1→n
// and the downgrade n→1); between two sharded counts it is refused
// with a clear error, because both layouts would claim the same
// shard-<i> directories.
func planShards(dataDir string, n int) (shardPlan, error) {
	if dataDir == "" {
		if n == 0 {
			n = 1
		}
		return shardPlan{n: n}, nil
	}
	plan := shardPlan{}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return plan, fmt.Errorf("reef: creating data dir: %w", err)
	}
	cur, err := detectShardCount(dataDir)
	if err != nil {
		return plan, err
	}
	if n == 0 {
		n = cur
		if n == 0 {
			n = 1
		}
	}
	plan.n = n
	plan.dirs = shardDirs(dataDir, n)
	if cur == 0 {
		// Publish the meta file BEFORE any shard journal is created: if
		// the first open dies mid-way, the partially created shard-<i>/
		// dirs must not masquerade as the directory's real count (a retry
		// would otherwise adopt or refuse the wrong number).
		if n > 1 {
			if err := writeShardMeta(dataDir, n); err != nil {
				return plan, err
			}
		}
		return plan, nil
	}
	if cur == n {
		return plan, nil
	}
	if cur != 1 && n != 1 {
		return plan, fmt.Errorf("%w: data dir %s is laid out for %d shards; reopen it with WithShards(%d) or re-shard through a single-shard step",
			ErrInvalidArgument, dataDir, cur, cur)
	}
	plan.migrate = true
	plan.oldN = cur
	plan.oldDirs = shardDirs(dataDir, cur)
	// Wipe any partial new-layout output of an interrupted earlier
	// migration: until the meta flip below, the old layout stays the
	// single source of truth, so this is cleanup, not data loss.
	if err := wipeLayout(dataDir, n); err != nil {
		return plan, err
	}
	return plan, nil
}

// wipeLayout removes layout-n's files under dataDir: every shard-<i>
// directory for a sharded layout, the root journal files for the
// single-shard one.
func wipeLayout(dataDir string, n int) error {
	if n == 1 {
		entries, err := os.ReadDir(dataDir)
		if err != nil {
			return fmt.Errorf("reef: reading data dir: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			// Prefix AND suffix, matching hasJournalFiles: a stray
			// wal-0.log.bak is not layout evidence, so it is not ours to
			// delete either.
			if e.Type().IsRegular() &&
				(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") ||
					strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json")) {
				if err := os.Remove(filepath.Join(dataDir, name)); err != nil {
					return fmt.Errorf("reef: clearing stale %s: %w", name, err)
				}
			}
		}
		return nil
	}
	dirs, _ := listShardDirs(dataDir)
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("reef: clearing stale %s: %w", d, err)
		}
	}
	return nil
}

// writeShardMeta atomically publishes the directory's shard count.
func writeShardMeta(dataDir string, n int) error {
	data, err := json.Marshal(shardMeta{Version: 1, Shards: n})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dataDir, shardMetaFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("reef: writing %s: %w", shardMetaFile, err)
	}
	if err := os.Rename(tmp, filepath.Join(dataDir, shardMetaFile)); err != nil {
		return fmt.Errorf("reef: publishing %s: %w", shardMetaFile, err)
	}
	return nil
}

// ensureShardLayout finalizes a non-migrating open: a sharded directory
// gets its meta file (fresh dirs), and stale files of the other layout
// left by a crash between a migration's meta flip and its cleanup are
// swept. Single-shard directories stay byte-compatible with the legacy
// layout: no meta file, nothing extra.
func ensureShardLayout(dataDir string, n int) error {
	if dataDir == "" {
		return nil
	}
	if n == 1 {
		_ = os.Remove(filepath.Join(dataDir, shardMetaFile))
		return wipeLayout(dataDir, 2) // sweep stale shard-* dirs, if any
	}
	if err := writeShardMeta(dataDir, n); err != nil {
		return err
	}
	return wipeLayout(dataDir, 1) // sweep stale root journal files, if any
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

// finishMigration publishes the migrated layout: flip the meta file to
// the new shard count (or drop it for the single-shard layout), then
// retire the old layout's files. Every new shard journal must already
// hold a durable snapshot of its slice of the state; a crash before the
// meta flip re-runs the migration from the untouched old layout, a
// crash after it leaves only stale old files, swept at the next open.
func finishMigration(dataDir string, plan shardPlan) error {
	if plan.n == 1 {
		if err := os.Remove(filepath.Join(dataDir, shardMetaFile)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("reef: retiring %s: %w", shardMetaFile, err)
		}
	} else {
		if err := writeShardMeta(dataDir, plan.n); err != nil {
			return err
		}
	}
	return wipeLayout(dataDir, plan.oldN)
}
