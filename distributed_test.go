package reef_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/durable/durabletest"
	"reef/internal/websim"
)

// distributedStatKeys are the durable counters the distributed deployment
// keeps across a restart.
var distributedStatKeys = []string{"subscriptions", "pending_recommendations"}

// pinPeers renders what the distributed deployment reports beyond the
// golden state — its exact Stats key set, its peers, and each peer's
// discovered-feed and applied-recommendation counts — as one line, so a
// test can pin it exactly.
func pinPeers(t *testing.T, ctx context.Context, dep *reef.Distributed) string {
	t.Helper()
	stats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	users := dep.Users()
	var known, applied []string
	for _, u := range users {
		known = append(known, fmt.Sprintf("%s:%d", u, dep.KnownFeedCount(u)))
		applied = append(applied, fmt.Sprintf("%s:%d", u, dep.AppliedCount(u)))
	}
	return fmt.Sprintf("keys=%s users=%s known=%s applied=%s",
		strings.Join(keys, ","), strings.Join(users, ","), strings.Join(known, ","), strings.Join(applied, ","))
}

// distributedKeys is the distributed deployment's exact Stats key set, as
// pinPeers renders it.
const distributedKeys = "keys=applied_recommendations,broker_canceled,broker_delivered,broker_dropped," +
	"broker_published,broker_subscribes,broker_subscriptions,broker_unsubscribes," +
	"known_feeds,peers,pending_recommendations,proxy_feeds,shards,subscriptions "

// checkPin compares a pinPeers line against its recorded value.
func checkPin(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n got  %s\n want %s", what, got, want)
	}
}

// driveDistributed pushes a manual-mode distributed deployment through
// its durable lifecycle: two peers browse feed-hosting pages, one accepts
// a recommendation and rejects another, the other places and removes
// direct subscriptions. It returns the users it touched.
func driveDistributed(t *testing.T, ctx context.Context, dep *reef.Distributed, web *websim.Web) []string {
	t.Helper()
	users := []string{"p1", "p2"}
	i := 0
	// Servers and pages in sorted order: a peer's recommendations follow
	// its browsing order, so p1 accepts the first host's first feed on every
	// run, never the last feed the callers then subscribe it to directly (a
	// duplicate apply counts twice live but once after a snapshot replay).
	for _, s := range feedServers(web) {
		urls := s.PageURLs()
		sort.Strings(urls)
		for _, url := range urls {
			// p2 browses every other page, so the two peers' profiles differ.
			for _, u := range users[:1+i%2] {
				if _, err := dep.IngestClicks(ctx, []reef.Click{{User: u, URL: url, At: dt0}}); err != nil {
					t.Fatal(err)
				}
			}
			i++
		}
	}
	recs, err := dep.Recommendations(ctx, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("p1 has %d locally generated recommendations, want at least 2", len(recs))
	}
	if err := dep.AcceptRecommendation(ctx, "p1", recs[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := dep.RejectRecommendation(ctx, "p1", recs[1].ID); err != nil {
		t.Fatal(err)
	}
	feeds := feedURLs(web)
	for _, f := range feeds[:2] {
		if _, err := dep.Subscribe(ctx, "p2", f); err != nil {
			t.Fatal(err)
		}
	}
	if err := dep.Unsubscribe(ctx, "p2", feeds[1]); err != nil {
		t.Fatal(err)
	}
	return users
}

// TestDistributedCrashRecovery checks the distributed deployment's
// durable slice — subscriptions and the pending ledger — survives an
// unclean close, at one shard and at three, with a mid-history snapshot
// so recovery crosses the snapshot/WAL boundary. Attention data
// intentionally does not persist there, so discovered feeds start from
// zero after the restart. The pins record the peer counters and Stats
// key set exactly.
func TestDistributedCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		shards                int
		pinLive, pinRecovered string
	}{
		{
			shards:       1,
			pinLive:      distributedKeys + "users=p1,p2 known=p1:28,p2:28 applied=p1:2,p2:2",
			pinRecovered: distributedKeys + "users=p1,p2 known=p1:0,p2:0 applied=p1:2,p2:1",
		},
		{
			shards:       3,
			pinLive:      distributedKeys + "users=p1,p2 known=p1:28,p2:28 applied=p1:2,p2:2",
			pinRecovered: distributedKeys + "users=p1,p2 known=p1:0,p2:0 applied=p1:2,p2:1",
		},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			ctx := context.Background()
			web := testWeb(13)
			dir := t.TempDir()
			open := func() *reef.Distributed {
				dep, err := reef.NewDistributed(
					reef.WithFetcher(web),
					reef.WithDataDir(dir),
					reef.WithShards(tc.shards),
					reef.WithSyncPolicy(reef.SyncAlways),
					reef.WithSnapshotEvery(-1),
				)
				if err != nil {
					t.Fatal(err)
				}
				return dep
			}
			dep := open()
			users := driveDistributed(t, ctx, dep, web)
			if _, err := dep.Snapshot(ctx); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			feeds := feedURLs(web)
			if _, err := dep.Subscribe(ctx, "p1", feeds[len(feeds)-1]); err != nil {
				t.Fatal(err)
			}
			before, err := durabletest.Capture(ctx, dep, users, distributedStatKeys)
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, "live pin", pinPeers(t, ctx, dep), tc.pinLive)
			if err := durabletest.Crash(dep); err != nil {
				t.Fatal(err)
			}

			dep2 := open()
			defer func() { _ = dep2.Close() }()
			after, err := durabletest.Capture(ctx, dep2, users, distributedStatKeys)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := durabletest.Diff(before, after)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatalf("recovered distributed state differs:\n%s", diff)
			}
			checkPin(t, "recovered pin", pinPeers(t, ctx, dep2), tc.pinRecovered)
		})
	}
}

// TestDistributedReopenAtAnyShardCount mirrors TestReopenAtAnyShardCount
// for the distributed deployment: one directory reopens at 1, 3, 2 and
// then 1 shard, with the golden state unchanged at each step and the
// peer counters and Stats key set pinned.
func TestDistributedReopenAtAnyShardCount(t *testing.T) {
	ctx := context.Background()
	web := testWeb(13)
	dir := t.TempDir()
	open := func(shards int) *reef.Distributed {
		dep, err := reef.NewDistributed(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithShards(shards),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1),
		)
		if err != nil {
			t.Fatalf("NewDistributed(WithShards(%d)): %v", shards, err)
		}
		return dep
	}
	capture := func(dep *reef.Distributed) *durabletest.GoldenState {
		t.Helper()
		g, err := durabletest.Capture(ctx, dep, []string{"p1", "p2"}, distributedStatKeys)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	same := func(step string, want, got *durabletest.GoldenState) {
		t.Helper()
		if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
			t.Fatalf("%s: state differs (%v):\n%s", step, err, diff)
		}
	}
	closeDep := func(dep *reef.Distributed) {
		t.Helper()
		if err := dep.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dep := open(1)
	driveDistributed(t, ctx, dep, web)
	// The journal holds a snapshot baseline and a WAL tail.
	if _, err := dep.Snapshot(ctx); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	feeds := feedURLs(web)
	if _, err := dep.Subscribe(ctx, "p1", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
	}
	want := capture(dep)
	checkPin(t, "pin at 1", pinPeers(t, ctx, dep),
		distributedKeys+"users=p1,p2 known=p1:28,p2:28 applied=p1:2,p2:2")
	closeDep(dep)

	dep = open(3)
	same("1 -> 3", want, capture(dep))
	checkPin(t, "pin at 3", pinPeers(t, ctx, dep),
		distributedKeys+"users=p1,p2 known=p1:0,p2:0 applied=p1:2,p2:1")
	if _, err := dep.Subscribe(ctx, "p2", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
	}
	want = capture(dep)
	closeDep(dep)

	dep = open(2)
	same("3 -> 2", want, capture(dep))
	checkPin(t, "pin at 2", pinPeers(t, ctx, dep),
		distributedKeys+"users=p1,p2 known=p1:0,p2:0 applied=p1:2,p2:2")
	closeDep(dep)

	dep = open(1)
	defer closeDep(dep)
	same("2 -> 1", want, capture(dep))
	checkPin(t, "pin back at 1", pinPeers(t, ctx, dep),
		distributedKeys+"users=p1,p2 known=p1:0,p2:0 applied=p1:2,p2:2")
	checkRootLayout(t, dir)
}

// feedServers returns the web's feed-hosting content servers, sorted by
// host.
func feedServers(web *websim.Web) []*websim.Server {
	var out []*websim.Server
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// browse has user click every page of servers.
func browse(t *testing.T, ctx context.Context, dep *reef.Distributed, user string, servers []*websim.Server) {
	t.Helper()
	for _, s := range servers {
		urls := s.PageURLs()
		sort.Strings(urls)
		for _, u := range urls {
			if _, err := dep.IngestClicks(ctx, []reef.Click{{User: user, URL: u, At: dt0}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDistributedEveryApplyIsDurable checks that every subscription the
// distributed deployment applies is journaled, not only the ones the API
// places directly: auto-applied recommendations, subscriptions a community
// exchange hands a peer, and the unsubscribes of an auto-mode sweep must
// all be back after a clean close, after a crash, and after a reopen at
// another shard count.
func TestDistributedEveryApplyIsDurable(t *testing.T) {
	cases := []struct {
		name  string
		auto  bool
		drive func(t *testing.T, ctx context.Context, dep *reef.Distributed, web *websim.Web)
	}{
		{"auto-apply", true, func(t *testing.T, ctx context.Context, dep *reef.Distributed, web *websim.Web) {
			browse(t, ctx, dep, "p1", feedServers(web))
			if dep.AppliedCount("p1") == 0 {
				t.Fatal("auto mode applied nothing")
			}
		}},
		{"exchange", false, func(t *testing.T, ctx context.Context, dep *reef.Distributed, web *websim.Web) {
			// Two peers with near-identical browsing; only p1 saw the last
			// feed-hosting server, so p2 learns its feeds from p1.
			servers := feedServers(web)
			browse(t, ctx, dep, "p1", servers)
			browse(t, ctx, dep, "p2", servers[:len(servers)-1])
			if _, exchanged := dep.ExchangeCommunities(0.2, dt0.Add(time.Hour)); exchanged == 0 {
				t.Fatal("community exchange applied nothing")
			}
		}},
		{"sweep", true, func(t *testing.T, ctx context.Context, dep *reef.Distributed, web *websim.Web) {
			servers := feedServers(web)
			browse(t, ctx, dep, "p1", servers)
			browse(t, ctx, dep, "p2", servers[:2])
			// p1 also places one of its auto-applied feeds through the API;
			// the sweep must remove it for good all the same.
			subs, err := dep.Subscriptions(ctx, "p1")
			if err != nil || len(subs) == 0 {
				t.Fatalf("Subscriptions(p1) = (%v, %v), want auto-applied feeds", subs, err)
			}
			if _, err := dep.Subscribe(ctx, "p1", subs[0].FeedURL); err != nil {
				t.Fatal(err)
			}
			if n, err := dep.SweepInactive(dt0.Add(60 * 24 * time.Hour)); err != nil || n == 0 {
				t.Fatalf("SweepInactive = (%d, %v), want unsubscribes", n, err)
			}
		}},
	}
	users := []string{"p1", "p2"}
	for _, tc := range cases {
		for _, shards := range []int{1, 3} {
			for _, restart := range []string{"close", "crash", "reshard"} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", tc.name, shards, restart), func(t *testing.T) {
					ctx := context.Background()
					web := testWeb(13)
					dir := t.TempDir()
					open := func(shards int) *reef.Distributed {
						dep, err := reef.NewDistributed(
							reef.WithFetcher(web),
							reef.WithAutoApply(tc.auto),
							reef.WithDataDir(dir),
							reef.WithShards(shards),
							reef.WithSyncPolicy(reef.SyncAlways),
						)
						if err != nil {
							t.Fatal(err)
						}
						return dep
					}
					dep := open(shards)
					tc.drive(t, ctx, dep, web)
					before, err := durabletest.Capture(ctx, dep, users, distributedStatKeys)
					if err != nil {
						t.Fatal(err)
					}
					reopenAt := shards
					switch restart {
					case "crash":
						err = durabletest.Crash(dep)
					case "reshard":
						reopenAt = 4 - shards // 1 <-> 3
						err = dep.Close()
					default:
						err = dep.Close()
					}
					if err != nil {
						t.Fatal(err)
					}
					dep2 := open(reopenAt)
					defer func() { _ = dep2.Close() }()
					after, err := durabletest.Capture(ctx, dep2, users, distributedStatKeys)
					if err != nil {
						t.Fatal(err)
					}
					if diff, err := durabletest.Diff(before, after); err != nil || diff != "" {
						t.Fatalf("state after %s differs (%v):\n%s", restart, err, diff)
					}
				})
			}
		}
	}
}
