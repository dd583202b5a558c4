package recommend

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"reef/internal/eventalg"
)

var rt0 = time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

func TestTopicRecommendOnDiscovery(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{})
	tr.ObserveVisit("u1", "news.test", rt0)
	rec, ok := tr.ObserveFeed("u1", "http://news.test/feed.xml", "news.test", rt0)
	if !ok {
		t.Fatal("no recommendation for fresh feed on visited host")
	}
	if rec.Kind != KindSubscribeFeed || rec.User != "u1" {
		t.Errorf("rec = %+v", rec)
	}
	if rec.Filter.IsEmpty() {
		t.Error("recommendation carries no filter")
	}
	// The filter must match that feed's events.
	if !rec.Filter.Match(eventalg.Tuple{
		"type": eventalg.String("feed-item"),
		"feed": eventalg.String("http://news.test/feed.xml"),
	}) {
		t.Error("filter does not match the feed's events")
	}
}

func TestTopicRecommendOncePerFeed(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{})
	tr.ObserveVisit("u1", "h.test", rt0)
	if _, ok := tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0); !ok {
		t.Fatal("first discovery not recommended")
	}
	if _, ok := tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0.Add(time.Hour)); ok {
		t.Error("same feed recommended twice")
	}
	if got := tr.Recommended("u1"); got != 1 {
		t.Errorf("Recommended = %d", got)
	}
}

func TestTopicMinHostVisits(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{MinHostVisits: 3})
	tr.ObserveVisit("u1", "h.test", rt0)
	if _, ok := tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0); ok {
		t.Error("recommended below visit threshold")
	}
	tr.ObserveVisit("u1", "h.test", rt0)
	tr.ObserveVisit("u1", "h.test", rt0)
	if _, ok := tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0); !ok {
		t.Error("not recommended at threshold")
	}
}

func TestTopicPerUserIsolation(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{})
	tr.ObserveVisit("u1", "h.test", rt0)
	tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0)
	// u2 never visited the host.
	if _, ok := tr.ObserveFeed("u2", "http://h.test/f.xml", "h.test", rt0); ok {
		t.Error("u2 recommended without visits")
	}
	tr.ObserveVisit("u2", "h.test", rt0)
	if _, ok := tr.ObserveFeed("u2", "http://h.test/f.xml", "h.test", rt0); !ok {
		t.Error("u2 not recommended after visiting")
	}
}

func TestSweepInactiveUnsubscribes(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{InactiveAfter: 10 * 24 * time.Hour})
	tr.ObserveVisit("u1", "h.test", rt0)
	tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0)
	if got := tr.Subscribed("u1"); got != 1 {
		t.Fatalf("Subscribed = %d", got)
	}
	// Too early: nothing swept.
	if recs := tr.SweepInactive(rt0.Add(5 * 24 * time.Hour)); len(recs) != 0 {
		t.Fatalf("early sweep = %+v", recs)
	}
	recs := tr.SweepInactive(rt0.Add(15 * 24 * time.Hour))
	if len(recs) != 1 || recs[0].Kind != KindUnsubscribeFeed {
		t.Fatalf("sweep = %+v", recs)
	}
	if got := tr.Subscribed("u1"); got != 0 {
		t.Errorf("Subscribed after sweep = %d", got)
	}
	// Idempotent: second sweep finds nothing.
	if recs := tr.SweepInactive(rt0.Add(16 * 24 * time.Hour)); len(recs) != 0 {
		t.Errorf("second sweep = %+v", recs)
	}
}

// TestSweepInactiveOrder sweeps many recommenders built the same way and
// expects one order, sorted by user then feed URL, whatever the map order.
func TestSweepInactiveOrder(t *testing.T) {
	build := func() *TopicRecommender {
		tr := NewTopicRecommender(TopicConfig{InactiveAfter: 10 * 24 * time.Hour})
		for u := 0; u < 4; u++ {
			user := fmt.Sprintf("u%d", u)
			for h := 0; h < 5; h++ {
				host := fmt.Sprintf("h%d.test", h)
				tr.ObserveVisit(user, host, rt0)
				tr.ObserveFeed(user, "http://"+host+"/f.xml", host, rt0)
			}
		}
		return tr
	}
	key := func(r Recommendation) string { return r.User + " " + r.FeedURL }
	var want []string
	for i := 0; i < 50; i++ {
		var got []string
		for _, r := range build().SweepInactive(rt0.Add(15 * 24 * time.Hour)) {
			got = append(got, key(r))
		}
		if len(got) != 20 || !slices.IsSorted(got) {
			t.Fatalf("sweep %d = %v, want 20 recommendations sorted by user, feed", i, got)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("sweep %d order %v differs from %v", i, got, want)
		}
	}
}

func TestClickFeedbackKeepsFeedAlive(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{InactiveAfter: 10 * 24 * time.Hour})
	tr.ObserveVisit("u1", "h.test", rt0)
	tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0)
	// The user stops visiting but clicks delivered events.
	tr.ObserveFeedback("u1", "http://h.test/f.xml", true, rt0.Add(12*24*time.Hour))
	if recs := tr.SweepInactive(rt0.Add(15 * 24 * time.Hour)); len(recs) != 0 {
		t.Errorf("clicked feed swept: %+v", recs)
	}
	// Much later with no further signal, it goes.
	if recs := tr.SweepInactive(rt0.Add(40 * 24 * time.Hour)); len(recs) != 1 {
		t.Errorf("stale feed survived: %+v", recs)
	}
}

func TestExpiryFeedbackLowersScore(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{InactiveAfter: 10 * 24 * time.Hour})
	tr.ObserveVisit("u1", "h.test", rt0)
	tr.ObserveFeed("u1", "http://h.test/f.xml", "h.test", rt0)
	// One click then many ignores: net negative score.
	tr.ObserveFeedback("u1", "http://h.test/f.xml", true, rt0.Add(24*time.Hour))
	for i := 0; i < 8; i++ {
		tr.ObserveFeedback("u1", "http://h.test/f.xml", false, rt0.Add(48*time.Hour))
	}
	recs := tr.SweepInactive(rt0.Add(12 * 24 * time.Hour))
	if len(recs) != 1 {
		t.Errorf("ignored feed not swept: %+v", recs)
	}
}

func TestFeedbackUnknownFeedIgnored(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{})
	tr.ObserveFeedback("u1", "http://never.test/f.xml", true, rt0) // no panic
	if tr.Recommended("u1") != 0 {
		t.Error("phantom feed appeared")
	}
}

func TestKindString(t *testing.T) {
	if KindSubscribeFeed.String() != "subscribe-feed" ||
		KindUnsubscribeFeed.String() != "unsubscribe-feed" ||
		KindContentQuery.String() != "content-query" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind name")
	}
}

func TestRecommendedCountsPerUser(t *testing.T) {
	tr := NewTopicRecommender(TopicConfig{})
	for i, feed := range []string{"http://a.test/1.xml", "http://a.test/2.xml", "http://b.test/1.xml"} {
		host := "a.test"
		if i == 2 {
			host = "b.test"
		}
		tr.ObserveVisit("u1", host, rt0)
		tr.ObserveFeed("u1", feed, host, rt0)
	}
	if got := tr.Recommended("u1"); got != 3 {
		t.Errorf("Recommended = %d", got)
	}
	if got := tr.Recommended("ghost"); got != 0 {
		t.Errorf("Recommended(ghost) = %d", got)
	}
}
