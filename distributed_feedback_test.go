package reef

import (
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"reef/internal/simclock"
	"reef/internal/topics"
	"reef/internal/websim"
)

// TestDistributedSidebarFeedback pins that a Distributed user's sidebar
// dispositions reach the user's peer, as a Centralized user's reach the
// server: a click on feed A's item keeps A through an inactivity sweep,
// and feed B, clicked once and then evicted from a full sidebar four
// times (four expiries at -0.25 each), is dropped by the same sweep.
// Without the hook the peer sees neither, and both feeds are dropped.
func TestDistributedSidebarFeedback(t *testing.T) {
	ctx := context.Background()
	t0 := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	wcfg := websim.DefaultConfig(19, t0)
	wcfg.NumContentServers, wcfg.NumAdServers, wcfg.NumSpamServers, wcfg.NumMultimediaServers = 30, 2, 1, 1
	wcfg.FeedProb = 0.6
	web := websim.Generate(wcfg, topics.NewModel(19, 6, 25, 30))
	d, err := NewDistributed(WithFetcher(web), WithAutoApply(true), WithSidebar(1, 0),
		WithClock(simclock.NewVirtual(t0)), WithPollInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()

	const user = "p1"
	var servers []*websim.Server
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) > 0 {
			servers = append(servers, s)
		}
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i].Host < servers[j].Host })
	var subs []Subscription
	for _, s := range servers {
		urls := s.PageURLs()
		sort.Strings(urls)
		for _, url := range urls {
			if _, err := d.IngestClicks(ctx, []Click{{User: user, URL: url, At: t0}}); err != nil {
				t.Fatal(err)
			}
		}
		if subs, err = d.Subscriptions(ctx, user); err != nil {
			t.Fatal(err)
		}
		if len(subs) >= 2 {
			break
		}
	}
	if len(subs) < 2 {
		t.Fatalf("peer auto-applied %d subscriptions, want at least 2", len(subs))
	}
	feedA, feedB := subs[0].FeedURL, subs[1].FeedURL

	bar, _ := d.shard(user).sidebar(user)
	publish := func(feed string) int64 {
		t.Helper()
		if _, err := d.PublishEvent(ctx, Event{Attrs: map[string]string{"type": "feed-item", "feed": feed}}); err != nil {
			t.Fatal(err)
		}
		items := bar.Items()
		if len(items) != 1 {
			t.Fatalf("sidebar shows %d items after a publish, want 1", len(items))
		}
		return items[0].ID
	}
	click := func(id int64) {
		t.Helper()
		if _, ok := bar.Click(id, t0); !ok {
			t.Fatalf("clicking sidebar item %d failed", id)
		}
	}
	click(publish(feedA))
	click(publish(feedB))
	for range 5 { // the first shows, the next four each evict the one before
		publish(feedB)
	}

	if _, err := d.SweepInactive(t0.Add(22 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if subs, err = d.Subscriptions(ctx, user); err != nil {
		t.Fatal(err)
	}
	has := func(feed string) bool {
		return slices.ContainsFunc(subs, func(s Subscription) bool { return s.FeedURL == feed })
	}
	if !has(feedA) {
		t.Errorf("clicked feed %s was swept: the click never reached the peer", feedA)
	}
	if has(feedB) {
		t.Errorf("feed %s survived the sweep: its four evictions never reached the peer", feedB)
	}
}
