package core

import (
	"sort"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/recommend"
	"reef/internal/topics"
	"reef/internal/websim"
)

func newPeerRig(t *testing.T, seed int64) *websim.Web {
	t.Helper()
	model := topics.NewModel(seed, 8, 30, 40)
	wcfg := websim.DefaultConfig(seed, ct0)
	wcfg.NumContentServers = 40
	wcfg.NumAdServers = 20
	wcfg.NumSpamServers = 3
	wcfg.NumMultimediaServers = 2
	wcfg.FeedProb = 0.6
	return websim.Generate(wcfg, model)
}

func browsePage(t *testing.T, web *websim.Web, p *Peer, url string, at time.Time) []recommend.Recommendation {
	t.Helper()
	res, err := web.Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	return p.ObservePageView(attention.Click{User: p.User(), URL: url, At: at}, res)
}

func TestPeerLocalPipeline(t *testing.T) {
	web := newPeerRig(t, 1)
	peer := NewPeer(PeerConfig{User: "p1"})

	pageURL, _ := feedHostPage(t, web)
	web.ResetStats()
	res, err := web.Fetch(pageURL)
	if err != nil {
		t.Fatal(err)
	}
	recs := peer.ObservePageView(attention.Click{User: "p1", URL: pageURL, At: ct0}, res)
	if len(recs) == 0 {
		t.Fatal("no local recommendations")
	}
	for _, rec := range recs {
		if rec.Kind != recommend.KindSubscribeFeed || rec.User != "p1" {
			t.Errorf("rec = %+v, want a subscribe for p1", rec)
		}
	}
	// The peer analyzed the cached copy: exactly one fetch (the browse
	// itself), zero crawl traffic.
	fetches, _ := web.Stats()
	if fetches != 1 {
		t.Errorf("fetches = %d, want 1 (no crawl traffic)", fetches)
	}
	if len(peer.KnownFeeds()) == 0 {
		t.Error("no known feeds")
	}
}

func TestPeerIgnoresAdPages(t *testing.T) {
	web := newPeerRig(t, 2)
	peer := NewPeer(PeerConfig{User: "p1"})
	ad := web.Servers(websim.KindAd)[0]
	recs := browsePage(t, web, peer, ad.URL("/banner/1"), ct0)
	if len(peer.KnownFeeds()) != 0 || len(recs) != 0 {
		t.Error("ad page produced recommendations")
	}
	if peer.ProfileVector() == nil {
		// Profile may be empty; just ensure no panic.
		_ = peer
	}
}

func TestPeerProfileVector(t *testing.T) {
	web := newPeerRig(t, 3)
	peer := NewPeer(PeerConfig{User: "p1"})
	srv := web.Servers(websim.KindContent)[0]
	for _, p := range srv.Pages {
		browsePage(t, web, peer, srv.URL(p.Path), ct0)
	}
	v := peer.ProfileVector()
	if len(v) == 0 {
		t.Fatal("empty profile vector after browsing")
	}
	if len(v) > 50 {
		t.Errorf("profile sketch too large: %d terms", len(v))
	}
}

func TestPeerCommunityExchange(t *testing.T) {
	web := newPeerRig(t, 4)
	// Two peers browse the same topical server (similar profiles); one of
	// them also finds a feed the other has not seen.
	p1 := NewPeer(PeerConfig{User: "p1"})
	p2 := NewPeer(PeerConfig{User: "p2"})

	// Pick both servers by sorted host, not map order, and never the same
	// one: were the shared server the feed host, p2 would already know
	// every feed p1 has and there would be nothing to exchange.
	servers := web.Servers(websim.KindContent)
	sort.Slice(servers, func(i, j int) bool { return servers[i].Host < servers[j].Host })
	var shared, feedHost *websim.Server
	for _, s := range servers {
		switch {
		case feedHost == nil && len(s.Feeds) > 0 && len(s.Pages) > 0:
			feedHost = s
		case shared == nil:
			shared = s
		}
	}
	if shared == nil || feedHost == nil {
		t.Fatal("need a feed-hosting content server and another one")
	}
	for _, pg := range shared.Pages {
		url := shared.URL(pg.Path)
		browsePage(t, web, p1, url, ct0)
		browsePage(t, web, p2, url, ct0)
	}
	// p1 additionally browses a feed host p2 never visits.
	feedPages := feedHost.PageURLs()
	sort.Strings(feedPages)
	browsePage(t, web, p1, feedPages[0], ct0)

	before := len(p2.KnownFeeds())
	comms, recs := ExchangeRecommendations([]*Peer{p1, p2}, 0.2, ct0.Add(time.Hour))
	if comms == 0 {
		t.Fatal("no communities formed")
	}
	if len(p1.KnownFeeds()) == 0 {
		t.Fatal("p1 has no feeds to share")
	}
	if len(recs) != 2 {
		t.Fatalf("got recommendations for %d peers, want 2", len(recs))
	}
	if len(recs[1]) == 0 && before == len(p2.KnownFeeds()) {
		t.Error("no collaborative exchange happened")
	}
	for _, rec := range recs[1] {
		if rec.Kind != recommend.KindSubscribeFeed || rec.User != "p2" {
			t.Errorf("exchanged rec = %+v, want a subscribe for p2", rec)
		}
	}
	if len(p2.KnownFeeds()) < len(p1.KnownFeeds()) {
		t.Error("p2 did not learn p1's feeds")
	}
}

func TestPeerSweepInactive(t *testing.T) {
	web := newPeerRig(t, 5)
	peer := NewPeer(PeerConfig{User: "p1"})
	pageURL, _ := feedHostPage(t, web)
	subs := browsePage(t, web, peer, pageURL, ct0)
	if len(subs) == 0 {
		t.Fatal("setup: no subscribe recommendations")
	}
	recs := peer.SweepInactive(ct0.Add(60 * 24 * time.Hour))
	if len(recs) == 0 {
		t.Fatal("sweep found nothing after 60 idle days")
	}
	swept := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.Kind != recommend.KindUnsubscribeFeed {
			t.Errorf("sweep rec = %+v, want an unsubscribe", rec)
		}
		swept[rec.FeedURL] = true
	}
	for _, rec := range subs {
		if !swept[rec.FeedURL] {
			t.Errorf("idle feed %s not swept", rec.FeedURL)
		}
	}
}

func TestPeerEventFeedback(t *testing.T) {
	web := newPeerRig(t, 6)
	peer := NewPeer(PeerConfig{User: "p1"})
	pageURL, _ := feedHostPage(t, web)
	browsePage(t, web, peer, pageURL, ct0)
	for f := range peer.KnownFeeds() {
		peer.ObserveEventFeedback(f, true, ct0.Add(time.Hour))
	}
	// Click feedback extends the grace period: a sweep at 1.5x the window
	// keeps the feeds.
	if recs := peer.SweepInactive(ct0.Add(30 * 24 * time.Hour)); len(recs) != 0 {
		t.Errorf("clicked feeds swept early: %d", len(recs))
	}
}

// TestPeerFeedbackBeforeBrowsing: feedback that reaches a peer before its
// user has browsed is a no-op and makes no recommender state; once the
// user has state, feedback reaches it.
func TestPeerFeedbackBeforeBrowsing(t *testing.T) {
	web := newPeerRig(t, 6)
	peer := NewPeer(PeerConfig{User: "p1"})
	pageURL, _ := feedHostPage(t, web)
	peer.ObserveEventFeedback(pageURL, true, ct0)
	if peer.topicRec.Lookup("p1") != nil {
		t.Fatal("feedback before browsing made recommender state")
	}
	browsePage(t, web, peer, pageURL, ct0)
	for f := range peer.KnownFeeds() {
		peer.ObserveEventFeedback(f, true, ct0.Add(time.Hour))
	}
	if recs := peer.SweepInactive(ct0.Add(30 * 24 * time.Hour)); len(recs) != 0 {
		t.Errorf("clicked feeds swept early: %d", len(recs))
	}
}

func TestPeerMalformedInput(t *testing.T) {
	peer := NewPeer(PeerConfig{User: "p1"})
	if recs := peer.ObservePageView(attention.Click{User: "p1", URL: "garbage"}, nil); recs != nil {
		t.Error("nil resource produced recommendations")
	}
	if recs := peer.peerFeedRecommendations([]string{"::bad::"}, ct0); len(recs) != 0 {
		t.Error("bad feed URL recommended")
	}
	if len(peer.KnownFeeds()) != 0 {
		t.Error("bad feed URL became known")
	}
}
