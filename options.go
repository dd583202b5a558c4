package reef

import (
	"time"

	"reef/internal/frontend"
	"reef/internal/simclock"
	"reef/internal/waif"
	"reef/internal/websim"
)

type config struct {
	fetcher         websim.Fetcher
	clock           simclock.Clock
	sidebarCapacity int
	sidebarTTL      time.Duration
	pollEvery       time.Duration
	autoApply       bool
	subscriberFor   func(user string) frontend.Subscriber
	feedPublisher   waif.Publisher
	dataDir         string
	syncPolicy      SyncPolicy
	snapshotEvery   int
	shards          int
	ackTimeout      time.Duration
	maxAttempts     int
}

func buildConfig(opts []Option) config {
	cfg := config{shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clock == nil {
		cfg.clock = simclock.Real{}
	}
	return cfg
}

// Option configures a deployment constructor.
type Option func(*config)

// WithFetcher supplies the deployment's access to the web: the crawler's
// fetch path for the centralized deployment, the browser cache for the
// distributed one, and the WAIF proxy's feed poller for both. Required.
func WithFetcher(f websim.Fetcher) Option {
	return func(c *config) { c.fetcher = f }
}

// WithClock drives all deployment timestamps (virtual time in
// simulations); the default is the real clock.
func WithClock(clk simclock.Clock) Option {
	return func(c *config) { c.clock = clk }
}

// WithQueueSize has no effect: a hosted frontend displays each event on
// the publisher's goroutine and has no delivery queue to size (WithSidebar
// bounds what it shows).
//
// Deprecated: kept only for callers that still pass it.
func WithQueueSize(int) Option {
	return func(*config) {}
}

// WithSidebar tunes each user's sidebar: capacity bounds displayed items,
// ttl expires ignored ones. Zero values keep the defaults (20 items, 24h).
func WithSidebar(capacity int, ttl time.Duration) Option {
	return func(c *config) {
		c.sidebarCapacity = capacity
		c.sidebarTTL = ttl
	}
}

// WithPollInterval sets the WAIF proxy's per-feed poll interval.
func WithPollInterval(d time.Duration) Option {
	return func(c *config) { c.pollEvery = d }
}

// WithAutoApply makes the distributed deployment apply its locally
// generated recommendations immediately (the paper's zero-click behavior)
// instead of queuing them for AcceptRecommendation.
func WithAutoApply(on bool) Option {
	return func(c *config) { c.autoApply = on }
}

// WithSubscriberFactory routes each user's subscriptions to a caller-owned
// subscription point (e.g. a per-user leaf node of a broker overlay)
// instead of the deployment's internal broker.
func WithSubscriberFactory(fn func(user string) frontend.Subscriber) Option {
	return func(c *config) { c.subscriberFor = fn }
}

// WithFeedPublisher routes WAIF feed-item events to a caller-owned
// publisher (e.g. the root node of a broker overlay) instead of the
// deployment's internal broker.
func WithFeedPublisher(p waif.Publisher) Option {
	return func(c *config) { c.feedPublisher = p }
}

// WithDataDir makes the deployment durable: every state mutation appends
// to a write-ahead log under dir, periodic snapshots compact it, and
// construction replays the directory's contents so the deployment resumes
// where it (or a crashed predecessor) left off. The default, no data dir,
// keeps all state in memory.
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// WithSyncPolicy selects when WAL appends reach stable storage (default
// SyncAsync). Only meaningful together with WithDataDir.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.syncPolicy = p }
}

// WithSnapshotEvery compacts the WAL with a snapshot after every n
// appended records (default 4096; 0 keeps the default, negative disables
// automatic compaction). Only meaningful together with WithDataDir.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapshotEvery = n }
}

// WithShards partitions the deployment's users across n engine shards
// in memory, each with its own broker lock domain, pending ledger and
// frontends. User-addressed calls (clicks, subscriptions,
// recommendations) route to exactly one shard by a stable hash of the
// user identity; publishes fan out to every shard concurrently; stats
// aggregate across shards. Under WithDataDir every shard records
// through the node's one journal at the directory root, so the count is
// a runtime choice: any n opens any directory, with no migration step.
// Unset means 1. n < 1 makes the constructor fail with
// ErrInvalidArgument.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithDeliveryDefaults sets the deployment-wide defaults for
// at-least-once subscriptions that do not tune their own ack timeout or
// max-attempts cap at Subscribe time (defaults: 30s, 5 attempts). Zero
// values keep the package defaults.
func WithDeliveryDefaults(ackTimeout time.Duration, maxAttempts int) Option {
	return func(c *config) {
		c.ackTimeout = ackTimeout
		c.maxAttempts = maxAttempts
	}
}
