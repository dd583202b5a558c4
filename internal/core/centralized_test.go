package core

import (
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/recommend"
	"reef/internal/store"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/internal/workload"
)

var ct0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

// testRig bundles a centralized server over a small synthetic web.
type testRig struct {
	web    *websim.Web
	server *Server
}

func newRig(t *testing.T, seed int64) *testRig {
	t.Helper()
	model := topics.NewModel(seed, 8, 30, 40)
	wcfg := websim.DefaultConfig(seed, ct0)
	wcfg.NumContentServers = 40
	wcfg.NumAdServers = 25
	wcfg.NumSpamServers = 4
	wcfg.NumMultimediaServers = 2
	wcfg.FeedProb = 0.6
	web := websim.Generate(wcfg, model)
	return &testRig{web: web, server: NewServer(ServerConfig{Fetcher: web})}
}

// feedHostPage returns a page URL on a content server that hosts feeds.
func feedHostPage(t *testing.T, web *websim.Web) (string, *websim.Server) {
	t.Helper()
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for _, p := range s.Pages {
			return s.URL(p.Path), s
		}
	}
	t.Fatal("no feed-hosting content server")
	return "", nil
}

func TestServerFlagsAdServers(t *testing.T) {
	rig := newRig(t, 2)
	ad := rig.web.Servers(websim.KindAd)[0]
	batch := []attention.Click{
		{User: "u1", URL: ad.URL("/banner/1"), At: ct0},
		{User: "u1", URL: ad.URL("/banner/2"), At: ct0},
	}
	if err := rig.server.ReceiveClicks(batch); err != nil {
		t.Fatal(err)
	}
	stats := rig.server.RunPipeline(ct0)
	if stats.FlaggedServers != 1 {
		t.Errorf("flagged = %d, want 1", stats.FlaggedServers)
	}
	if !rig.server.Store().HasFlag(ad.Host, store.FlagAd) {
		t.Error("ad host not flagged")
	}
	// Second round: the flagged host is skipped entirely.
	rig.server.ReceiveClicks([]attention.Click{
		{User: "u1", URL: ad.URL("/banner/3"), At: ct0},
	})
	rig.web.ResetStats()
	stats = rig.server.RunPipeline(ct0.Add(time.Hour))
	fetches, _ := rig.web.Stats()
	if fetches != 0 {
		t.Errorf("flagged host re-crawled: %d fetches", fetches)
	}
	_ = stats
}

func TestServerCrawlOncePerURL(t *testing.T) {
	rig := newRig(t, 3)
	pageURL, _ := feedHostPage(t, rig.web)
	rig.server.ReceiveClicks([]attention.Click{
		{User: "u1", URL: pageURL, At: ct0},
		{User: "u2", URL: pageURL, At: ct0},
		{User: "u1", URL: pageURL, At: ct0.Add(time.Minute)},
	})
	if got := rig.server.PendingCrawl(); got != 1 {
		t.Errorf("pending = %d, want 1 (deduped)", got)
	}
	stats := rig.server.RunPipeline(ct0)
	if stats.Crawled != 1 {
		t.Errorf("crawled = %d", stats.Crawled)
	}
	// Both visitors get the feed recommendation.
	r1 := rig.server.Recommendations("u1")
	r2 := rig.server.Recommendations("u2")
	if len(r1) == 0 || len(r2) == 0 {
		t.Errorf("recs: u1=%d u2=%d", len(r1), len(r2))
	}
	// Outbox drained.
	if got := rig.server.Recommendations("u1"); len(got) != 0 {
		t.Errorf("outbox not drained: %d", len(got))
	}
}

func TestServerHostNotRecrawled(t *testing.T) {
	rig := newRig(t, 4)
	pageURL, srv := feedHostPage(t, rig.web)
	rig.server.ReceiveClicks([]attention.Click{{User: "u1", URL: pageURL, At: ct0}})
	rig.server.RunPipeline(ct0)
	// A second URL on the same (now FlagCrawled) host is skipped: the
	// paper crawls per-server, not per-page, once classified.
	var other string
	for _, p := range srv.Pages {
		if u := srv.URL(p.Path); u != pageURL {
			other = u
			break
		}
	}
	if other == "" {
		t.Skip("single-page server")
	}
	rig.server.ReceiveClicks([]attention.Click{{User: "u1", URL: other, At: ct0}})
	rig.web.ResetStats()
	rig.server.RunPipeline(ct0.Add(time.Hour))
	fetches, _ := rig.web.Stats()
	if fetches != 0 {
		t.Errorf("crawled-host page fetched again: %d", fetches)
	}
}

func TestServerContentProfileGrows(t *testing.T) {
	rig := newRig(t, 5)
	model := topics.NewModel(5, 8, 30, 40)
	_ = model
	gen := workload.NewGenerator(workload.Config{
		Seed: 5, NumUsers: 1, Days: 3, Start: ct0,
		SessionsPerDayMin: 2, SessionsPerDayMax: 3,
		PagesPerSessionMin: 5, PagesPerSessionMax: 10,
		CoreTopics: 2, MinorTopics: 2,
	}, rig.web)
	gen.GenerateAll(func(d workload.Day) {
		rig.server.ReceiveClicks(d.Clicks)
	})
	rig.server.RunPipeline(ct0.Add(3 * 24 * time.Hour))
	user := gen.Users()[0].ID
	if got := rig.server.ContentRecommender().ProfileSize(user); got == 0 {
		t.Fatal("content profile empty after browsing")
	}
	terms := rig.server.ContentRecommender().SelectTerms(user, 10)
	if len(terms) == 0 {
		t.Fatal("no profile terms selected")
	}
	if rig.server.Corpus().N() == 0 {
		t.Fatal("background corpus empty")
	}
}

func TestQueueFeedRecommendation(t *testing.T) {
	rig := newRig(t, 6)
	if err := rig.server.QueueFeedRecommendation("u9", "http://c0001.web.test/feeds/0.xml", ct0); err != nil {
		t.Fatal(err)
	}
	recs := rig.server.Recommendations("u9")
	if len(recs) != 1 || recs[0].Kind != recommend.KindSubscribeFeed {
		t.Fatalf("recs = %+v", recs)
	}
	if err := rig.server.QueueFeedRecommendation("u9", ":bad:", ct0); err == nil {
		t.Error("bad URL accepted")
	}
}

func TestServerFeedbackLoop(t *testing.T) {
	rig := newRig(t, 7)
	feedURL := "http://c0002.web.test/feeds/0.xml"
	rig.server.QueueFeedRecommendation("u1", feedURL, ct0)
	rig.server.Recommendations("u1")
	// Expiries push the score down; with no visits the sweep drops it.
	for i := 0; i < 5; i++ {
		rig.server.ObserveEventFeedback("u1", feedURL, false, ct0.Add(time.Hour))
	}
	recs := rig.server.TopicRecommender().SweepInactive(ct0.Add(40 * 24 * time.Hour))
	if len(recs) != 1 || recs[0].Kind != recommend.KindUnsubscribeFeed {
		t.Fatalf("sweep = %+v", recs)
	}
}

// TestServerFeedbackRoute: a user's feedback route does nothing, and makes
// no recommender state, until the user has state; from then on it reaches
// that state: a click earns the feed a grace period, so a sweep at 1.5x
// the inactivity window keeps it.
func TestServerFeedbackRoute(t *testing.T) {
	rig := newRig(t, 7)
	feedURL := "http://c0002.web.test/feeds/0.xml"
	fb := rig.server.Feedback("u1")
	fb.Observe(feedURL, true, ct0)
	if rig.server.TopicRecommender().Lookup("u1") != nil {
		t.Fatal("feedback for an unseen user made recommender state")
	}
	rig.server.QueueFeedRecommendation("u1", feedURL, ct0)
	rig.server.Recommendations("u1")
	fb.Observe(feedURL, true, ct0.Add(time.Hour))
	if recs := rig.server.TopicRecommender().SweepInactive(ct0.Add(30 * 24 * time.Hour)); len(recs) != 0 {
		t.Fatalf("clicked feed swept early: %+v", recs)
	}
}
