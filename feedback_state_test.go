package reef

import (
	"context"
	"testing"
	"time"

	"reef/internal/simclock"
	"reef/internal/topics"
	"reef/internal/websim"
)

// TestEvictionsMakeNoRecommenderState pins that a user who never browsed
// gets no recommender state from the feedback of their sidebar: a
// subscription placed directly fills a one-item sidebar, three more events
// each evict the one before, and the server's recommender that the
// evictions feed back to still holds no state for the user. The
// distributed deployment feeds a sidebar back to the user's own peer,
// whose Peer.ObserveEventFeedback is pinned the same way by core's
// TestPeerFeedbackBeforeBrowsing; here it must still take the evictions.
func TestEvictionsMakeNoRecommenderState(t *testing.T) {
	ctx := context.Background()
	t0 := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	wcfg := websim.DefaultConfig(23, t0)
	wcfg.NumContentServers, wcfg.NumAdServers, wcfg.NumSpamServers, wcfg.NumMultimediaServers = 8, 1, 1, 1
	web := websim.Generate(wcfg, topics.NewModel(23, 4, 10, 12))
	opts := []Option{WithFetcher(web), WithSidebar(1, 0), WithClock(simclock.NewVirtual(t0)), WithPollInterval(time.Hour)}
	const user, feed = "quiet", "http://c0000.web.test/feeds/0.xml"

	evict := func(t *testing.T, dep Deployment, r *router) {
		t.Helper()
		if _, err := dep.Subscribe(ctx, user, feed); err != nil {
			t.Fatal(err)
		}
		for range 4 {
			if _, err := dep.PublishEvent(ctx, Event{Attrs: map[string]string{"type": "feed-item", "feed": feed}}); err != nil {
				t.Fatal(err)
			}
		}
		bar, _ := r.shard(user).sidebar(user)
		if shown, _, _, expired := bar.Stats(); shown != 4 || expired != 3 {
			t.Fatalf("sidebar shown %d, expired %d; want 4 and 3", shown, expired)
		}
	}

	t.Run("centralized", func(t *testing.T) {
		c, err := NewCentralized(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		evict(t, c, c.router)
		if serverOf(c.shard(user)).TopicRecommender().Lookup(user) != nil {
			t.Error("the server's recommender holds state for the user after evictions alone")
		}
	})
	t.Run("distributed", func(t *testing.T) {
		d, err := NewDistributed(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = d.Close() }()
		evict(t, d, d.router)
		if _, ok := peersOf(d.shard(user)).lookup(user); !ok {
			t.Fatal("the user has no peer")
		}
	})
}
