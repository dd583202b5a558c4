package frontend

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"reef/internal/delivery"
	"reef/internal/eventalg"
	"reef/internal/pubsub"
	"reef/internal/recommend"
	"reef/internal/waif"
)

var ft0 = time.Date(2006, 4, 1, 0, 0, 0, 0, time.UTC)

func feedEvent(feedURL, title string) pubsub.Event {
	return pubsub.Event{
		Attrs: eventalg.Tuple{
			"type":  eventalg.String(waif.EventAttrType),
			"feed":  eventalg.String(feedURL),
			"title": eventalg.String(title),
			"link":  eventalg.String(feedURL + "/item"),
		}.Attrs(),
	}
}

type feedbackRec struct {
	mu    sync.Mutex
	calls []Disposition
}

func (f *feedbackRec) fn(feedURL string, d Disposition, at time.Time) {
	f.mu.Lock()
	f.calls = append(f.calls, d)
	f.mu.Unlock()
}

func (f *feedbackRec) count(d Disposition) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		if c == d {
			n++
		}
	}
	return n
}

func TestSidebarAddClickDelete(t *testing.T) {
	fb := &feedbackRec{}
	s := NewSidebar(Config{Capacity: 10, TTL: time.Hour, Feedback: fb.fn})
	id1 := s.Add(feedEvent("http://f.test/x.xml", "one"), ft0)
	id2 := s.Add(feedEvent("http://f.test/x.xml", "two"), ft0)
	if len(s.Items()) != 2 {
		t.Fatalf("items = %d", len(s.Items()))
	}
	link, ok := s.Click(id1, ft0.Add(time.Minute))
	if !ok || link != "http://f.test/x.xml/item" {
		t.Errorf("Click = (%q, %v)", link, ok)
	}
	if !s.Delete(id2, ft0.Add(time.Minute)) {
		t.Error("Delete failed")
	}
	if len(s.Items()) != 0 {
		t.Error("items remain")
	}
	if _, ok := s.Click(999, ft0); ok {
		t.Error("clicked nonexistent item")
	}
	if fb.count(DispositionClicked) != 1 || fb.count(DispositionDeleted) != 1 {
		t.Errorf("feedback calls = %+v", fb.calls)
	}
	shown, clicked, deleted, expired := s.Stats()
	if shown != 2 || clicked != 1 || deleted != 1 || expired != 0 {
		t.Errorf("stats = %d %d %d %d", shown, clicked, deleted, expired)
	}
}

func TestSidebarExpiry(t *testing.T) {
	fb := &feedbackRec{}
	s := NewSidebar(Config{Capacity: 10, TTL: time.Hour, Feedback: fb.fn})
	s.Add(feedEvent("http://f.test/x.xml", "old"), ft0)
	s.Add(feedEvent("http://f.test/x.xml", "new"), ft0.Add(50*time.Minute))
	if got := s.Expire(ft0.Add(65 * time.Minute)); got != 1 {
		t.Fatalf("Expire = %d", got)
	}
	if len(s.Items()) != 1 || s.Items()[0].Title != "new" {
		t.Error("wrong item expired")
	}
	if fb.count(DispositionExpired) != 1 {
		t.Error("expiry feedback missing")
	}
}

func TestSidebarCapacityEvictsOldest(t *testing.T) {
	fb := &feedbackRec{}
	s := NewSidebar(Config{Capacity: 3, TTL: time.Hour, Feedback: fb.fn})
	for i := 0; i < 5; i++ {
		s.Add(feedEvent("http://f.test/x.xml", "t"), ft0)
	}
	if len(s.Items()) != 3 {
		t.Fatalf("items = %d, want capacity 3", len(s.Items()))
	}
	if fb.count(DispositionExpired) != 2 {
		t.Errorf("evictions = %d", fb.count(DispositionExpired))
	}
}

// fakeProxy records proxy calls.
type fakeProxy struct {
	mu   sync.Mutex
	subs map[string]int
}

func newFakeProxy() *fakeProxy { return &fakeProxy{subs: map[string]int{}} }

func (p *fakeProxy) Subscribe(feedURL string, now time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subs[feedURL]++
	return nil
}

func (p *fakeProxy) Unsubscribe(feedURL string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subs[feedURL]--
}

func (p *fakeProxy) count(feedURL string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.subs[feedURL]
}

func newTestFrontend(t *testing.T) (*Frontend, *pubsub.Broker, *fakeProxy) {
	t.Helper()
	broker := pubsub.NewBroker("local", nil)
	t.Cleanup(broker.Close)
	proxy := newFakeProxy()
	sidebar := NewSidebar(Config{Capacity: 50, TTL: time.Hour})
	fe := NewFrontend("u1", broker, proxy, sidebar, func() time.Time { return ft0 })
	t.Cleanup(fe.Close)
	return fe, broker, proxy
}

func feedRec(url string) recommend.Recommendation {
	return recommend.Recommendation{
		Kind:    recommend.KindSubscribeFeed,
		User:    "u1",
		FeedURL: url,
		Filter:  waif.ItemFilter(url),
		At:      ft0,
	}
}

func TestFrontendApplySubscribe(t *testing.T) {
	fe, broker, proxy := newTestFrontend(t)
	url := "http://h.test/f.xml"
	if err := fe.Apply(feedRec(url)); err != nil {
		t.Fatal(err)
	}
	if proxy.count(url) != 1 {
		t.Error("proxy not subscribed")
	}
	if got := fe.ActiveSubscriptions(); len(got) != 1 {
		t.Fatalf("active = %v", got)
	}
	// A matching event is in the sidebar when Publish returns.
	broker.Publish(context.Background(), feedEvent(url, "story"))
	if items := fe.Sidebar().Items(); len(items) != 1 || items[0].Title != "story" {
		t.Errorf("sidebar after Publish = %+v, want the story", items)
	}
}

func TestFrontendDuplicateSubscribe(t *testing.T) {
	fe, _, proxy := newTestFrontend(t)
	url := "http://h.test/f.xml"
	fe.Apply(feedRec(url))
	fe.Apply(feedRec(url))
	if proxy.count(url) != 1 {
		t.Errorf("proxy count = %d, want 1 (dup ignored)", proxy.count(url))
	}
	if len(fe.ActiveSubscriptions()) != 1 {
		t.Error("duplicate active subscription")
	}
}

// TestFrontendApplyTapped: the tap runs in the subscription's handler, so
// it has every matched event when Publish returns; a duplicate subscribe
// carrying a tap upgrades the subscription already placed instead of
// placing a second one.
func TestFrontendApplyTapped(t *testing.T) {
	fe, broker, _ := newTestFrontend(t)
	tapped, plain := "http://h.test/tapped.xml", "http://h.test/plain.xml"
	seen := map[string]int{}
	tap := func(ev pubsub.Event) {
		feed, _ := ev.Attrs.Get("feed")
		seen[feed.Str()]++
	}
	if err := fe.ApplyTapped(feedRec(tapped), tap); err != nil {
		t.Fatal(err)
	}
	if err := fe.Apply(feedRec(plain)); err != nil {
		t.Fatal(err)
	}
	publish := func() {
		for _, url := range []string{tapped, plain} {
			if _, err := broker.Publish(context.Background(), feedEvent(url, "story")); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish()
	if seen[tapped] != 1 || seen[plain] != 0 {
		t.Fatalf("tap saw %v, want only the tapped feed's event", seen)
	}
	if err := fe.ApplyTapped(feedRec(plain), tap); err != nil {
		t.Fatal(err)
	}
	if got := broker.NumSubscriptions(); got != 2 {
		t.Fatalf("broker holds %d subscriptions after the duplicate, want 2", got)
	}
	publish()
	if seen[tapped] != 2 || seen[plain] != 1 {
		t.Fatalf("after the upgrade the tap saw %v, want 2 and 1", seen)
	}
}

func TestFrontendUnsubscribe(t *testing.T) {
	fe, broker, proxy := newTestFrontend(t)
	url := "http://h.test/f.xml"
	fe.Apply(feedRec(url))
	if err := fe.Apply(recommend.Recommendation{
		Kind: recommend.KindUnsubscribeFeed, User: "u1", FeedURL: url, At: ft0,
	}); err != nil {
		t.Fatal(err)
	}
	if proxy.count(url) != 0 {
		t.Error("proxy still subscribed")
	}
	if len(fe.ActiveSubscriptions()) != 0 {
		t.Error("subscription still active")
	}
	if broker.NumSubscriptions() != 0 {
		t.Error("broker subscription leaked")
	}
	// Unknown unsubscribe: no-op.
	if err := fe.Apply(recommend.Recommendation{
		Kind: recommend.KindUnsubscribeFeed, User: "u1", FeedURL: "http://other.test/f.xml",
	}); err != nil {
		t.Errorf("unknown unsubscribe = %v", err)
	}
}

func TestFrontendContentQuery(t *testing.T) {
	fe, broker, _ := newTestFrontend(t)
	rec := recommend.Recommendation{
		Kind:   recommend.KindContentQuery,
		User:   "u1",
		Filter: eventalg.MustParse(`keywords contains "quasar"`),
		At:     ft0,
	}
	if err := fe.Apply(rec); err != nil {
		t.Fatal(err)
	}
	broker.Publish(context.Background(), pubsub.Event{Attrs: eventalg.Tuple{
		"keywords": eventalg.String("quasar redshift"),
		"title":    eventalg.String("science story"),
	}.Attrs()})
	if items := fe.Sidebar().Items(); len(items) != 1 || items[0].Title != "science story" {
		t.Errorf("sidebar after Publish = %+v, want the content event", items)
	}
}

func TestFrontendClose(t *testing.T) {
	fe, broker, proxy := newTestFrontend(t)
	url := "http://h.test/f.xml"
	fe.Apply(feedRec(url))
	fe.Close()
	fe.Close() // idempotent
	if proxy.count(url) != 0 {
		t.Error("proxy subscription leaked on Close")
	}
	if broker.NumSubscriptions() != 0 {
		t.Error("broker subscription leaked on Close")
	}
	if err := fe.Apply(feedRec(url)); err != ErrFrontendClosed {
		t.Errorf("Apply after Close = %v", err)
	}
}

func TestFrontendUnknownKind(t *testing.T) {
	fe, _, _ := newTestFrontend(t)
	if err := fe.Apply(recommend.Recommendation{Kind: recommend.Kind(42)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestFrontendNoDeliveryAfterUnsubscribe: with four publishers in full
// flight, once the unsubscribe has returned nothing more reaches the
// sidebar or the reliable queue riding on the subscription.
func TestFrontendNoDeliveryAfterUnsubscribe(t *testing.T) {
	url := "http://h.test/f.xml"
	for round := 0; round < 20; round++ {
		fe, broker, _ := newTestFrontend(t)
		q := delivery.NewQueue(delivery.Config{Capacity: 1 << 20}) // never full, so Retained counts every Append
		if err := fe.ApplyTapped(feedRec(url), func(ev pubsub.Event) { q.Append(ev, ft0) }); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := make([]pubsub.Event, 64)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := range batch {
						batch[i] = feedEvent(url, "story")
					}
					broker.PublishBatch(context.Background(), batch)
				}
			}()
		}
		for q.Retained() == 0 {
			runtime.Gosched()
		}
		if err := fe.Apply(recommend.Recommendation{Kind: recommend.KindUnsubscribeFeed, User: "u1", FeedURL: url}); err != nil {
			t.Fatal(err)
		}
		shown, _, _, _ := fe.Sidebar().Stats()
		retained := q.Retained()
		time.Sleep(2 * time.Millisecond) // publishers still running
		close(stop)
		wg.Wait()
		if after, _, _, _ := fe.Sidebar().Stats(); after != shown || q.Retained() != retained {
			t.Fatalf("round %d: after Unsubscribe returned shown moved %d -> %d, retained %d -> %d",
				round, shown, after, retained, q.Retained())
		}
	}
}

// TestHandlerDeliveryAllocatesNothing pins the cost the publisher now
// carries: delivering one event to a hosted subscription whose sidebar is
// full (so every delivery also evicts and fires feedback) allocates nothing.
func TestHandlerDeliveryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, so the broker's pooled match scratch allocates")
	}
	broker := pubsub.NewBroker("local", nil)
	defer broker.Close()
	var expired int
	bar := NewSidebar(Config{Capacity: 4, Feedback: func(string, Disposition, time.Time) { expired++ }})
	fe := NewFrontend("u1", broker, nil, bar, func() time.Time { return ft0 })
	defer fe.Close()
	url := "http://h.test/f.xml"
	if err := fe.Apply(feedRec(url)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ev := feedEvent(url, "story")
	ev.ID, ev.Published = 1, ft0
	for i := 0; i < 4; i++ {
		broker.Publish(ctx, ev)
	}
	if got := testing.AllocsPerRun(200, func() { broker.Publish(ctx, ev) }); got != 0 {
		t.Errorf("one hosted delivery into a full sidebar allocates %v times, want 0", got)
	}
	if shown, _, _, gone := bar.Stats(); gone != shown-4 || int64(expired) != gone {
		t.Errorf("shown %d, expired %d, feedback calls %d", shown, gone, expired)
	}
}
