package reef

import (
	"context"
	"errors"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
)

// Sentinel errors returned by Deployment implementations. The REST surface
// (reefhttp) maps them to status codes and the client SDK (reefclient)
// maps them back, so errors.Is works identically against a local
// deployment and a remote one.
var (
	// ErrClosed is returned by operations on a closed deployment.
	ErrClosed = errors.New("reef: deployment closed")
	// ErrNotFound is returned when a named user, subscription or
	// recommendation does not exist.
	ErrNotFound = errors.New("reef: not found")
	// ErrInvalidArgument is returned for malformed input (empty user,
	// bad feed URL, empty event).
	ErrInvalidArgument = errors.New("reef: invalid argument")
	// ErrUnsupported is reserved for deployments that cannot perform an
	// operation at all. None of the built-in deployments return it; the
	// REST surface maps it to 501 so future backends can use it without
	// a wire change.
	ErrUnsupported = errors.New("reef: operation not supported by this deployment")
)

// Recommendation kinds, as stable wire strings.
const (
	KindSubscribeFeed   = "subscribe-feed"
	KindUnsubscribeFeed = "unsubscribe-feed"
	KindContentQuery    = "content-query"
)

// Click is one unit of attention data: an outgoing HTTP request with the
// attributes the paper's prototype logs — URI, timestamp, user cookie —
// plus a flag marking closed-loop clicks on delivered events.
type Click = attention.Click

// Event is one pub-sub event injected through the public API. Attributes
// are name-value string pairs matched against subscription filters.
type Event struct {
	Source    string            `json:"source,omitempty"`
	Attrs     map[string]string `json:"attrs"`
	Payload   []byte            `json:"payload,omitempty"`
	Published time.Time         `json:"published,omitempty"`
}

// Term is one weighted profile term of a content-based recommendation.
type Term struct {
	Term  string  `json:"term"`
	Score float64 `json:"score"`
}

// Recommendation is one pending subscribe/unsubscribe action awaiting the
// user's (or the API caller's) accept/reject decision.
type Recommendation struct {
	// ID identifies the pending recommendation for accept/reject calls.
	ID string `json:"id"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	User string `json:"user"`
	// FeedURL is set for feed recommendations.
	FeedURL string `json:"feed_url,omitempty"`
	// Filter is the textual form of the pub-sub filter to place.
	Filter string `json:"filter,omitempty"`
	// Reason is a human-readable explanation.
	Reason string    `json:"reason,omitempty"`
	At     time.Time `json:"at"`
	// Terms carries the selected profile terms for content queries.
	Terms []Term `json:"terms,omitempty"`
}

// Subscription is one live subscription of a user.
type Subscription struct {
	// ID is the subscription's stable identifier: the feed URL for feed
	// subscriptions, the canonical filter text otherwise.
	ID      string    `json:"id"`
	User    string    `json:"user"`
	Kind    string    `json:"kind"`
	FeedURL string    `json:"feed_url,omitempty"`
	Filter  string    `json:"filter,omitempty"`
	Since   time.Time `json:"since"`
	// Guarantee is the delivery tier's wire name ("at_least_once" for
	// reliable subscriptions; empty for best-effort).
	Guarantee string `json:"delivery_guarantee,omitempty"`
	// Acked is a reliable subscription's durable cumulative cursor: the
	// highest sequence number the consumer has acknowledged.
	Acked int64 `json:"acked_seq,omitempty"`
}

// Stats is a flat snapshot of deployment counters.
type Stats map[string]float64

// SidebarItem is one event displayed in a user's sidebar.
type SidebarItem struct {
	ID      int64     `json:"id"`
	Title   string    `json:"title"`
	Link    string    `json:"link"`
	FeedURL string    `json:"feed_url,omitempty"`
	Shown   time.Time `json:"shown"`
}

// PipelineStats summarizes one crawl/analysis pipeline round.
type PipelineStats struct {
	Crawled         int `json:"crawled"`
	CrawlErrors     int `json:"crawl_errors"`
	FeedsDiscovered int `json:"feeds_discovered"`
	Recommendations int `json:"recommendations"`
	FlaggedServers  int `json:"flagged_servers"`
}

// SyncPolicy selects when write-ahead-log appends reach stable storage on
// deployments opened with WithDataDir.
type SyncPolicy = durable.SyncPolicy

// Sync policies. The zero value is invalid so defaults stay explicit.
const (
	// SyncAsync (default) buffers appends and flushes on a short
	// background interval: a bounded loss window at near-zero append cost.
	SyncAsync = durable.SyncAsync
	// SyncAlways fsyncs every append before acknowledging it.
	SyncAlways = durable.SyncAlways
	// SyncNever flushes only on snapshot and close; a crash loses the
	// buffered tail.
	SyncNever = durable.SyncNever
)

// StorageInfo describes a deployment's persistence state, served by
// GET /v1/admin/storage.
type StorageInfo struct {
	// Backend is "file" for WithDataDir deployments, "memory" otherwise.
	Backend string `json:"backend"`
	// Dir is the data directory (file backend only).
	Dir string `json:"dir,omitempty"`
	// Sync is the active sync policy name (file backend only).
	Sync string `json:"sync,omitempty"`
	// Generation counts snapshot compactions over the directory lifetime.
	Generation uint64 `json:"generation"`
	// WALRecords and WALBytes size the current WAL segment.
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Snapshots counts snapshots taken since the deployment opened.
	Snapshots int64 `json:"snapshots"`
	// Syncs counts the WAL fsyncs since the deployment opened.
	Syncs int64 `json:"syncs"`
	// LastSnapshot is when the latest snapshot was written (zero if none).
	LastSnapshot time.Time `json:"last_snapshot,omitempty"`
	// RecoveredRecords is how many WAL records replayed at open.
	RecoveredRecords int64 `json:"recovered_records"`
	// TornTail reports the WAL ended in a torn record at open; recovery
	// stopped cleanly at the last intact record.
	TornTail bool `json:"torn_tail,omitempty"`
	// ShardCount is the number of engine shards behind the deployment
	// (1 unless WithShards raised it). Every shard of a node records
	// through the node's one journal, so the other fields describe the
	// whole node at any count.
	ShardCount int `json:"shard_count,omitempty"`
	// Shards is the per-node breakdown of a cluster deployment
	// (reefcluster), with Node set on each entry. Empty on a single
	// node, which has one journal whatever its shard count.
	Shards []StorageInfo `json:"shards,omitempty"`
	// Node labels a per-node entry of a cluster deployment's breakdown
	// with that node's ID. Empty everywhere else.
	Node string `json:"node,omitempty"`
}

// Persister is the optional durability surface of a Deployment. Both
// built-in deployments and the client SDK implement it; the REST layer
// maps it to the /v1/admin endpoints and answers 501 for deployments
// that do not implement it.
type Persister interface {
	// StorageInfo reports the persistence backend's state.
	StorageInfo(ctx context.Context) (StorageInfo, error)
	// Snapshot forces a compacting snapshot: the full deployment state
	// becomes the new recovery baseline and the WAL restarts empty. On a
	// memory-backed deployment it is a no-op. It returns the storage
	// state after the compaction.
	Snapshot(ctx context.Context) (StorageInfo, error)
}

// Sharder is the optional sharding surface of a Deployment. Both
// built-in deployments implement it; the REST layer reports the count
// on GET /v1/healthz.
type Sharder interface {
	// ShardCount reports how many independent engine shards serve the
	// deployment (1 for an unsharded engine).
	ShardCount() int
}

// Deployment is the single surface both Reef deployments — the
// centralized "LAMP-style" server (Figure 1) and the distributed
// WAIF-peer pipeline (Figure 2) — expose to callers: binaries, examples,
// the REST layer and future backends all program against it. Every call
// takes a context; implementations honor cancellation on any path that
// can block. Implementations may offer additional concrete methods
// (pipeline driving, sidebar access), but anything a remote client can do
// goes through this interface.
type Deployment interface {
	// IngestClicks records a batch of attention data. It returns how many
	// clicks were ingested (the distributed deployment skips clicks whose
	// page is not in the local browser cache).
	IngestClicks(ctx context.Context, clicks []Click) (int, error)

	// PublishEvent injects one event into the pub-sub substrate and
	// returns the number of local deliveries.
	PublishEvent(ctx context.Context, ev Event) (int, error)

	// PublishBatch injects a batch of events, amortizing per-publish
	// overhead (lock acquisition, index probes, one HTTP round trip for
	// remote deployments) across the batch. It returns the total number
	// of local deliveries. The batch is validated as a whole before any
	// event is published.
	PublishBatch(ctx context.Context, evs []Event) (int, error)

	// Subscriptions lists the user's live subscriptions.
	Subscriptions(ctx context.Context, user string) ([]Subscription, error)
	// Subscribe places a feed subscription directly (bypassing the
	// recommendation flow). Options select the delivery tier and its
	// tuning; with none the subscription is best-effort. Impossible
	// option combinations are rejected with a *ConfigError before any
	// state changes.
	Subscribe(ctx context.Context, user, feedURL string, opts ...SubscribeOption) (Subscription, error)
	// Unsubscribe removes a feed subscription. It returns ErrNotFound if
	// the user has no subscription for the feed.
	Unsubscribe(ctx context.Context, user, feedURL string) error

	// Recommendations lists the user's pending recommendations without
	// consuming them; each carries an ID for the accept/reject calls.
	Recommendations(ctx context.Context, user string) ([]Recommendation, error)
	// AcceptRecommendation executes a pending recommendation.
	AcceptRecommendation(ctx context.Context, user, id string) error
	// RejectRecommendation discards a pending recommendation, feeding
	// negative signal back to the recommender.
	RejectRecommendation(ctx context.Context, user, id string) error

	// Stats snapshots the deployment's counters.
	Stats(ctx context.Context) (Stats, error)

	// Close releases the deployment's resources. Further calls return
	// ErrClosed.
	Close() error
}

// BatchCountPublisher is an optional Deployment extension: a batch
// publish that also reports per-event delivery counts. Stream servers
// coalesce pipelined publish frames into one batch call and need to ack
// each frame with its own delivered count. Both built-in deployments
// implement it; callers fall back to per-frame PublishBatch for a
// deployment that does not.
type BatchCountPublisher interface {
	// PublishBatchCounts behaves like PublishBatch; counts must be nil
	// or have len(evs) entries, and counts[i] is incremented once per
	// delivery of evs[i].
	PublishBatchCounts(ctx context.Context, evs []Event, counts []int) (int, error)
}
