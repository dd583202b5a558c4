package reef_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"reef"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/waif"
)

// TestWithShardsValidation pins the WithShards contract: n < 1 is
// rejected with ErrInvalidArgument by both constructors.
func TestWithShardsValidation(t *testing.T) {
	web := testWeb(21)
	for _, n := range []int{0, -1, -100} {
		if _, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithShards(n)); !errors.Is(err, reef.ErrInvalidArgument) {
			t.Errorf("NewCentralized(WithShards(%d)) error = %v, want ErrInvalidArgument", n, err)
		}
		if _, err := reef.NewDistributed(reef.WithFetcher(web), reef.WithShards(n)); !errors.Is(err, reef.ErrInvalidArgument) {
			t.Errorf("NewDistributed(WithShards(%d)) error = %v, want ErrInvalidArgument", n, err)
		}
	}
}

// TestShardedPublishBatchWholeBatchValidation: one invalid event in a
// batch must publish nothing on any shard — the batch converts (and
// fails) before any shard's broker sees it.
func TestShardedPublishBatchWholeBatchValidation(t *testing.T) {
	ctx := context.Background()
	web := testWeb(22)
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()

	// Subscribers on several shards, so a partial publish would be visible.
	feeds := feedURLs(web)
	users := []string{"alice", "bob", "carol", "dave", "erin"}
	for _, u := range users {
		if _, err := dep.Subscribe(ctx, u, feeds[0]); err != nil {
			t.Fatal(err)
		}
	}
	item := map[string]string{"type": waif.EventAttrType, "feed": feeds[0], "title": "t", "link": "http://x.test/1"}
	batch := []reef.Event{
		{Attrs: item},
		{Attrs: nil}, // invalid: no attributes
		{Attrs: item},
	}
	if _, err := dep.PublishBatch(ctx, batch); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("PublishBatch with invalid event: error = %v, want ErrInvalidArgument", err)
	}
	stats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["broker_published"]; got != 0 {
		t.Errorf("broker_published after rejected batch = %v, want 0 (no shard may see a partial batch)", got)
	}

	// The same batch without the bad event delivers on every shard that
	// hosts a subscriber.
	n, err := dep.PublishBatch(ctx, []reef.Event{{Attrs: item}})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(users) {
		t.Errorf("PublishBatch delivered %d, want %d (one delivery per subscribed user across shards)", n, len(users))
	}
}

// TestShardedRoutingAndAggregation drives user-addressed calls through
// a 4-shard deployment and checks per-user state stays user-visible
// (routing is deterministic), publishes fan out to all shards, Stats
// aggregate with a per-shard breakdown, and StorageInfo reports the one
// journal with the shard count.
func TestShardedRoutingAndAggregation(t *testing.T) {
	ctx := context.Background()
	web := testWeb(23)
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	if got := dep.ShardCount(); got != 4 {
		t.Fatalf("ShardCount = %d, want 4", got)
	}

	feeds := feedURLs(web)
	users := make([]string, 12)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
		if _, err := dep.Subscribe(ctx, users[i], feeds[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range users {
		subs, err := dep.Subscriptions(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != 1 {
			t.Fatalf("user %s sees %d subscriptions, want 1", u, len(subs))
		}
	}
	if err := dep.Unsubscribe(ctx, users[0], feeds[0]); err != nil {
		t.Fatal(err)
	}
	if subs, _ := dep.Subscriptions(ctx, users[0]); len(subs) != 0 {
		t.Fatalf("after unsubscribe, user %s still sees %d subscriptions", users[0], len(subs))
	}

	// A feed-item publish reaches every remaining subscriber of feeds[0],
	// wherever they hash.
	ev := reef.Event{Attrs: map[string]string{
		"type": waif.EventAttrType, "feed": feeds[0], "title": "t", "link": "http://x.test/1",
	}}
	delivered, err := dep.PublishEvent(ctx, ev)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range users {
		if i%2 == 0 && i != 0 {
			want++
		}
	}
	if delivered != want {
		t.Errorf("PublishEvent delivered %d, want %d", delivered, want)
	}

	stats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["shards"]; got != 4 {
		t.Errorf("stats[shards] = %v, want 4", got)
	}
	if got := stats["users_with_frontends"]; got != float64(len(users)) {
		t.Errorf("users_with_frontends = %v, want %d", got, len(users))
	}
	var perShard float64
	for i := 0; i < 4; i++ {
		perShard += stats[fmt.Sprintf("shard%d_users_with_frontends", i)]
	}
	if perShard != float64(len(users)) {
		t.Errorf("per-shard user breakdown sums to %v, want %d", perShard, len(users))
	}

	// The brokers' counters sum across shards; no event was lost to a full
	// queue and no delivery raced a cancel here.
	if got := stats["broker_delivered"]; got != float64(want) {
		t.Errorf("broker_delivered = %v, want %d", got, want)
	}
	for _, key := range []string{"broker_dropped", metrics.BrokerCanceled.Key} {
		if got, ok := stats[key]; !ok || got != 0 {
			t.Errorf("stats[%s] = %v (present %v), want 0", key, got, ok)
		}
	}

	info, err := dep.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "memory" || info.ShardCount != 4 || len(info.Shards) != 0 {
		t.Errorf("StorageInfo = %+v, want memory backend, 4 shards and no per-shard entries", info)
	}
}

// TestShardedFeedPublisherRejected: a single caller-owned feed
// publisher cannot fan in from several shards' proxies without
// duplicating items, so the combination is refused up front.
func TestShardedFeedPublisherRejected(t *testing.T) {
	web := testWeb(24)
	if _, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithShards(2),
		reef.WithFeedPublisher(nopPublisher{})); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("Centralized WithFeedPublisher+WithShards(2): error = %v, want ErrInvalidArgument", err)
	}
	if _, err := reef.NewDistributed(reef.WithFetcher(web), reef.WithShards(2),
		reef.WithFeedPublisher(nopPublisher{})); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("Distributed WithFeedPublisher+WithShards(2): error = %v, want ErrInvalidArgument", err)
	}
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithShards(1),
		reef.WithFeedPublisher(nopPublisher{}))
	if err != nil {
		t.Fatalf("single shard with feed publisher must stay allowed: %v", err)
	}
	_ = dep.Close()
}

type nopPublisher struct{}

func (nopPublisher) Publish(ctx context.Context, ev pubsub.Event) error { return nil }
