package reef_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"reef"
	"reef/internal/simclock"
	"reef/internal/topics"
	"reef/internal/websim"
)

var dt0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

func testWeb(seed int64) *websim.Web {
	model := topics.NewModel(seed, 6, 25, 30)
	wcfg := websim.DefaultConfig(seed, dt0)
	wcfg.NumContentServers = 30
	wcfg.NumAdServers = 10
	wcfg.NumSpamServers = 2
	wcfg.NumMultimediaServers = 1
	wcfg.FeedProb = 0.6
	return websim.Generate(wcfg, model)
}

func feedPage(t *testing.T, web *websim.Web) string {
	t.Helper()
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for _, p := range s.Pages {
			return s.URL(p.Path)
		}
	}
	t.Fatal("no feed-hosting content server")
	return ""
}

// TestDistributedManualFlow drives the distributed deployment through the
// interface: local analysis queues recommendations, accept places the
// subscription, reject drops it.
func TestDistributedManualFlow(t *testing.T) {
	ctx := context.Background()
	web := testWeb(7)
	dep, err := reef.NewDistributed(reef.WithFetcher(web))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()

	// Browse feed-hosting pages until a recommendation appears.
	var recs []reef.Recommendation
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for path := range s.Pages {
			if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "p1", URL: s.URL(path), At: dt0}}); err != nil {
				t.Fatal(err)
			}
		}
		recs, err = dep.Recommendations(ctx, "p1")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			break
		}
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations from local analysis")
	}
	if dep.AppliedCount("p1") != 0 {
		t.Fatalf("manual mode auto-applied %d recommendations", dep.AppliedCount("p1"))
	}

	if err := dep.AcceptRecommendation(ctx, "p1", recs[0].ID); err != nil {
		t.Fatal(err)
	}
	subs, err := dep.Subscriptions(ctx, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].FeedURL != recs[0].FeedURL {
		t.Fatalf("subscriptions = %+v", subs)
	}
	if len(recs) > 1 {
		if err := dep.RejectRecommendation(ctx, "p1", recs[1].ID); err != nil {
			t.Fatal(err)
		}
		if err := dep.AcceptRecommendation(ctx, "p1", recs[1].ID); !errors.Is(err, reef.ErrNotFound) {
			t.Fatalf("accept after reject = %v, want ErrNotFound", err)
		}
	}
}

// TestCentralizedPaperLoop runs the paper's whole loop on the shipped
// engine: a click on a feed-hosting page, the pipeline's crawl and
// recommendation, an accept that places the subscription through the
// WAIF proxy, and a poll that puts the feed's new item in the sidebar.
func TestCentralizedPaperLoop(t *testing.T) {
	ctx := context.Background()
	web := testWeb(1)
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithClock(simclock.NewVirtual(dt0)),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()

	if n, err := dep.IngestClicks(ctx, []reef.Click{{User: "u1", URL: feedPage(t, web), At: dt0}}); err != nil || n != 1 {
		t.Fatalf("IngestClicks = (%d, %v), want 1 stored", n, err)
	}
	stats := dep.RunPipeline(dt0.Add(time.Hour))
	if stats.Crawled != 1 {
		t.Fatalf("crawled = %d, want 1", stats.Crawled)
	}
	if stats.FeedsDiscovered == 0 {
		t.Fatal("no feeds discovered on a feed-hosting page")
	}
	if stats.Recommendations == 0 {
		t.Fatal("no recommendations generated")
	}

	recs, err := dep.Recommendations(ctx, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no pending recommendations")
	}
	if err := dep.AcceptRecommendation(ctx, "u1", recs[0].ID); err != nil {
		t.Fatal(err)
	}
	subs, err := dep.Subscriptions(ctx, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].FeedURL != recs[0].FeedURL {
		t.Fatalf("subscriptions = %+v, want the accepted %s", subs, recs[0].FeedURL)
	}
	dstats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dstats["clicks_stored"] != 1 || dstats["proxy_feeds"] < 1 {
		t.Fatalf("clicks_stored = %v, proxy_feeds = %v, want 1 and the accepted feed", dstats["clicks_stored"], dstats["proxy_feeds"])
	}

	// Prime, advance the feed, poll: the item is in the sidebar when the
	// poll that published it returns.
	dep.PollFeeds(ctx, dt0.Add(time.Hour))
	later := dt0.Add(8 * 24 * time.Hour)
	web.AdvanceTo(later)
	if _, published := dep.PollFeeds(ctx, later); published == 0 {
		t.Fatalf("no items published from %s", recs[0].FeedURL)
	}
	if len(dep.Sidebar("u1")) == 0 {
		t.Fatal("feed item not in the sidebar after the poll returned")
	}
}

// TestCentralizedValidation exercises the invalid-argument paths shared
// by both deployments.
func TestCentralizedValidation(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()

	if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "", URL: "http://a.test/"}}); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("empty user = %v", err)
	}
	if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "u", URL: ""}}); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("empty URL = %v", err)
	}
	if _, err := dep.Subscribe(ctx, "u", "ftp://bad"); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("bad scheme = %v", err)
	}
	if _, err := dep.PublishEvent(ctx, reef.Event{}); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("empty event = %v", err)
	}
	if _, err := dep.Recommendations(ctx, " "); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("blank user = %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := dep.Stats(canceled); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx = %v", err)
	}
}

// TestCentralizedClosed checks ErrClosed after Close, and that Close is
// idempotent.
func TestCentralizedClosed(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "u", URL: "http://a.test/"}}); !errors.Is(err, reef.ErrClosed) {
		t.Errorf("ingest after close = %v", err)
	}
	if _, err := dep.Stats(ctx); !errors.Is(err, reef.ErrClosed) {
		t.Errorf("stats after close = %v", err)
	}
}

// TestConstructorsRequireFetcher pins the option contract.
func TestConstructorsRequireFetcher(t *testing.T) {
	if _, err := reef.NewCentralized(); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("NewCentralized() = %v", err)
	}
	if _, err := reef.NewDistributed(); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("NewDistributed() = %v", err)
	}
}

// TestUnknownSyncPolicy pins that a sync policy outside the three named
// ones is rejected as input by both constructors.
func TestUnknownSyncPolicy(t *testing.T) {
	for _, p := range []reef.SyncPolicy{-1, reef.SyncNever + 1, 9} {
		dir := t.TempDir()
		opts := []reef.Option{reef.WithFetcher(testWeb(30)), reef.WithDataDir(dir), reef.WithSyncPolicy(p)}
		if _, err := reef.NewCentralized(opts...); !errors.Is(err, reef.ErrInvalidArgument) {
			t.Errorf("NewCentralized(WithSyncPolicy(%d)) = %v, want ErrInvalidArgument", p, err)
		}
		if _, err := reef.NewDistributed(opts...); !errors.Is(err, reef.ErrInvalidArgument) {
			t.Errorf("NewDistributed(WithSyncPolicy(%d)) = %v, want ErrInvalidArgument", p, err)
		}
	}
}

// TestDeploymentCapabilities pins which optional interfaces each built-in
// deployment satisfies. Transports decide by type assertion: reefhttp
// answers 501 for reliable delivery a deployment lacks, and reefstream
// falls back to polling or per-frame publishes, so a method the
// distributed deployment picked up from shared code would silently open
// those paths.
func TestDeploymentCapabilities(t *testing.T) {
	for _, tc := range []struct {
		name                                              string
		dep                                               reef.Deployment
		reliable, stream, batchCounts, persister, sharder bool
	}{
		{"Centralized", (*reef.Centralized)(nil), true, true, true, true, true},
		{"Distributed", (*reef.Distributed)(nil), false, false, true, true, true},
	} {
		_, reliable := tc.dep.(reef.ReliableDeliverer)
		_, stream := tc.dep.(reef.StreamDeliverer)
		_, batchCounts := tc.dep.(reef.BatchCountPublisher)
		_, persister := tc.dep.(reef.Persister)
		_, sharder := tc.dep.(reef.Sharder)
		for _, c := range []struct {
			iface     string
			got, want bool
		}{
			{"ReliableDeliverer", reliable, tc.reliable},
			{"StreamDeliverer", stream, tc.stream},
			{"BatchCountPublisher", batchCounts, tc.batchCounts},
			{"Persister", persister, tc.persister},
			{"Sharder", sharder, tc.sharder},
		} {
			if c.got != c.want {
				t.Errorf("*%s implements %s = %v, want %v", tc.name, c.iface, c.got, c.want)
			}
		}
	}
}

// TestHostedSubscriptionsOwnNoGoroutineOrQueue guards the two resources a
// hosted subscription used to own: a pump goroutine and a channel sized by
// WithQueueSize (8192 slots of 80-byte events is 655 KB each). Placing 500
// of them must start no goroutine and grow the live heap by well under
// what a single such queue weighed per subscription.
func TestHostedSubscriptionsOwnNoGoroutineOrQueue(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(31)), reef.WithQueueSize(8192))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	goroutines, heap := runtime.NumGoroutine(), liveHeap()
	for i := 0; i < 500; i++ {
		user, feed := fmt.Sprintf("user-%03d", i%100), fmt.Sprintf("http://f%03d.test/feed.xml", i)
		if _, err := dep.Subscribe(ctx, user, feed); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("500 hosted subscriptions started %d goroutines, want none", got-goroutines)
	}
	if grew := int64(liveHeap()) - int64(heap); grew >= 4<<20 {
		t.Errorf("500 hosted subscriptions grew the live heap by %.1f MB, want < 4 MB", float64(grew)/(1<<20))
	}
}
