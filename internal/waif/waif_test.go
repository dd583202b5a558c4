package waif

import (
	"context"
	"sync"
	"testing"
	"time"

	"reef/internal/feed"
	"reef/internal/pubsub"
	"reef/internal/topics"
	"reef/internal/websim"
)

var simStart = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

type capturePublisher struct {
	mu     sync.Mutex
	events []pubsub.Event
}

func (c *capturePublisher) Publish(_ context.Context, ev pubsub.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	return nil
}

func (c *capturePublisher) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// feedWeb builds a web and returns it with the URL of one live feed.
func feedWeb(t *testing.T, seed int64) (*websim.Web, string) {
	t.Helper()
	model := topics.NewModel(seed, 4, 20, 20)
	cfg := websim.DefaultConfig(seed, simStart)
	cfg.NumContentServers = 40
	cfg.NumAdServers = 5
	cfg.NumSpamServers = 0
	cfg.NumMultimediaServers = 0
	cfg.FeedProb = 1.0
	cfg.FeedUpdateMin = time.Hour
	cfg.FeedUpdateMax = 2 * time.Hour
	w := websim.Generate(cfg, model)
	for _, s := range w.Servers(websim.KindContent) {
		for path := range s.Feeds {
			return w, s.URL(path)
		}
	}
	t.Fatal("no feeds generated")
	return nil, ""
}

func TestProxyPublishesNewItems(t *testing.T) {
	w, feedURL := feedWeb(t, 1)
	sink := &capturePublisher{}
	p := New(Config{Fetcher: w, Publish: sink, PollEvery: 30 * time.Minute})

	if err := p.Subscribe(feedURL, simStart); err != nil {
		t.Fatal(err)
	}
	// Priming poll: no events even if the feed has backlog.
	p.PollDue(context.Background(), simStart)
	if sink.len() != 0 {
		t.Fatalf("priming poll published %d events", sink.len())
	}

	// Let the feed publish some items, then poll after the interval.
	later := simStart.Add(12 * time.Hour)
	w.AdvanceTo(later)
	polled, published := p.PollDue(context.Background(), later)
	if polled != 1 {
		t.Fatalf("polled = %d, want 1", polled)
	}
	if published == 0 || sink.len() != published {
		t.Fatalf("published = %d, sink = %d", published, sink.len())
	}
	ev := sink.events[0]
	if typ, _ := ev.Attrs.Get("type"); typ.Str() != EventAttrType {
		t.Errorf("event type attr = %v", typ)
	}
	if feed, _ := ev.Attrs.Get("feed"); feed.Str() != feedURL {
		t.Errorf("event feed attr = %v", feed)
	}
	if !ItemFilter(feedURL).MatchAttrs(ev.Attrs) {
		t.Error("ItemFilter does not match the proxy's own events")
	}
}

func TestProxyDedupsAcrossPolls(t *testing.T) {
	w, feedURL := feedWeb(t, 2)
	sink := &capturePublisher{}
	p := New(Config{Fetcher: w, Publish: sink, PollEvery: time.Hour})
	p.Subscribe(feedURL, simStart)
	p.PollDue(context.Background(), simStart)

	t1 := simStart.Add(6 * time.Hour)
	w.AdvanceTo(t1)
	_, pub1 := p.PollDue(context.Background(), t1)

	// Poll again without feed progress: nothing new.
	t2 := t1.Add(time.Hour)
	_, pub2 := p.PollDue(context.Background(), t2)
	if pub2 != 0 {
		t.Errorf("re-poll published %d duplicate items", pub2)
	}
	if sink.len() != pub1 {
		t.Errorf("sink = %d, want %d", sink.len(), pub1)
	}
}

func TestProxyRespectsPollInterval(t *testing.T) {
	w, feedURL := feedWeb(t, 3)
	p := New(Config{Fetcher: w, Publish: &capturePublisher{}, PollEvery: time.Hour})
	p.Subscribe(feedURL, simStart)
	p.PollDue(context.Background(), simStart)
	// 10 minutes later: not due.
	if polled, _ := p.PollDue(context.Background(), simStart.Add(10*time.Minute)); polled != 0 {
		t.Errorf("polled %d before interval", polled)
	}
	if polled, _ := p.PollDue(context.Background(), simStart.Add(61*time.Minute)); polled != 1 {
		t.Errorf("polled %d after interval, want 1", polled)
	}
}

func TestProxySharedPolling(t *testing.T) {
	w, feedURL := feedWeb(t, 4)
	p := New(Config{Fetcher: w, Publish: &capturePublisher{}, PollEvery: time.Hour})
	for i := 0; i < 5; i++ {
		p.Subscribe(feedURL, simStart)
	}
	if p.NumFeeds() != 1 {
		t.Fatalf("NumFeeds = %d", p.NumFeeds())
	}
	if p.Subscribers(feedURL) != 5 {
		t.Fatalf("Subscribers = %d", p.Subscribers(feedURL))
	}
	p.PollDue(context.Background(), simStart)
	snap := p.Metrics().Snapshot()
	if snap["polls"] != 1 {
		t.Errorf("polls = %v, want 1 (shared)", snap["polls"])
	}
	if snap["polls_saved"] != 4 {
		t.Errorf("polls_saved = %v, want 4", snap["polls_saved"])
	}
}

func TestProxyUnsubscribeRefcount(t *testing.T) {
	w, feedURL := feedWeb(t, 5)
	p := New(Config{Fetcher: w, Publish: &capturePublisher{}})
	p.Subscribe(feedURL, simStart)
	p.Subscribe(feedURL, simStart)
	p.Unsubscribe(feedURL)
	if p.NumFeeds() != 1 {
		t.Error("feed dropped while subscribers remain")
	}
	p.Unsubscribe(feedURL)
	if p.NumFeeds() != 0 {
		t.Error("feed retained after last unsubscribe")
	}
	p.Unsubscribe(feedURL) // no-op
	if polled, _ := p.PollDue(context.Background(), simStart.Add(24*time.Hour)); polled != 0 {
		t.Error("unsubscribed feed polled")
	}
}

func TestProxyFetchFailureDefers(t *testing.T) {
	w, feedURL := feedWeb(t, 6)
	host, _, _ := websim.SplitURL(feedURL)
	sink := &capturePublisher{}
	p := New(Config{Fetcher: w, Publish: sink, PollEvery: time.Hour})
	p.Subscribe(feedURL, simStart)

	w.SetDown(host, true)
	polled, published := p.PollDue(context.Background(), simStart)
	if polled != 1 || published != 0 {
		t.Fatalf("PollDue = (%d, %d)", polled, published)
	}
	if got := p.Metrics().Snapshot()["poll_errors"]; got != 1 {
		t.Errorf("poll_errors = %v", got)
	}
	// Host recovers; the feed polls again after the interval.
	w.SetDown(host, false)
	w.AdvanceTo(simStart.Add(10 * time.Hour))
	if polled, _ := p.PollDue(context.Background(), simStart.Add(time.Hour)); polled != 1 {
		t.Errorf("recovered feed not re-polled: %d", polled)
	}
}

func TestProxyClose(t *testing.T) {
	w, feedURL := feedWeb(t, 7)
	p := New(Config{Fetcher: w, Publish: &capturePublisher{}})
	p.Subscribe(feedURL, simStart)
	p.Close()
	if err := p.Subscribe("http://x.test/f.xml", simStart); err != ErrProxyClosed {
		t.Errorf("Subscribe after Close = %v", err)
	}
	if polled, _ := p.PollDue(context.Background(), simStart.Add(24*time.Hour)); polled != 0 {
		t.Error("closed proxy polled")
	}
}

func TestProxyIntoRealOverlay(t *testing.T) {
	w, feedURL := feedWeb(t, 8)
	ov := pubsub.NewOverlay()
	defer ov.Close()
	node, err := ov.AddNode("edge")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := node.Subscribe(ItemFilter(feedURL))
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Fetcher: w, Publish: node, PollEvery: time.Hour})
	p.Subscribe(feedURL, simStart)
	p.PollDue(context.Background(), simStart) // prime
	w.AdvanceTo(simStart.Add(12 * time.Hour))
	_, published := p.PollDue(context.Background(), simStart.Add(2*time.Hour))
	if published == 0 {
		t.Fatal("nothing published")
	}
	if err := ov.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(sub.Events()) != published {
		t.Errorf("delivered %d, want %d", len(sub.Events()), published)
	}
}

func TestItemFilterDoesNotMatchOtherFeeds(t *testing.T) {
	f := ItemFilter("http://a.test/f.xml")
	other := ItemEvent("http://b.test/f.xml", feed.Item{
		GUID: "g", Title: "t", Link: "l", Published: simStart,
	})
	if f.MatchAttrs(other.Attrs) {
		t.Error("filter matched another feed's items")
	}
}
