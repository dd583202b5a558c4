package experiments

import (
	"fmt"
	"time"

	"reef/internal/core"
	"reef/internal/metrics"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/internal/workload"
)

// FOptions tunes the architecture comparison (Figures 1 and 2).
type FOptions struct {
	// Seed drives all randomness.
	Seed int64
	// UserCounts is the scaling sweep (default 5, 10, 20, 40).
	UserCounts []int
	// Days per run (default 14 to keep runs brisk).
	Days int
	// Scale shrinks the web (default 0.25).
	Scale float64
}

func (o FOptions) withDefaults() FOptions {
	if len(o.UserCounts) == 0 {
		o.UserCounts = []int{5, 10, 20, 40}
	}
	if o.Days <= 0 {
		o.Days = 14
	}
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	return o
}

// archRun holds one architecture's measurements at one user count.
type archRun struct {
	users        int
	crawlFetches int64
	crawlBytes   int64
	uploadBytes  int64
	serverClicks int
	recs         int
	exchanged    int
}

// runCentralized measures Figure 1 at one scale: clicks upload to the
// server, the server crawls and recommends.
func runCentralized(opt FOptions, users int) archRun {
	model := topics.NewModel(opt.Seed, 16, 50, 80)
	wcfg := websim.DefaultConfig(opt.Seed, SimStart)
	wcfg.NumContentServers = scaleInt(wcfg.NumContentServers, opt.Scale)
	wcfg.NumAdServers = scaleInt(wcfg.NumAdServers, opt.Scale)
	wcfg.NumSpamServers = scaleInt(wcfg.NumSpamServers, opt.Scale)
	wcfg.NumMultimediaServers = scaleInt(wcfg.NumMultimediaServers, opt.Scale)
	web := websim.Generate(wcfg, model)

	server := core.NewServer(core.ServerConfig{Fetcher: web})
	gen := workload.NewGenerator(workload.DefaultConfigAdjusted(opt.Seed, SimStart, users, opt.Days), web)

	// Browsing traffic itself is not crawl traffic: reset after workload
	// generation is accounted separately (the workload does not fetch).
	recs := 0
	gen.GenerateAll(func(d workload.Day) {
		_ = server.ReceiveClicks(d.Clicks)
		server.RunPipeline(d.Date.Add(24 * time.Hour))
		for _, u := range gen.Users() {
			recs += len(server.Recommendations(u.ID))
		}
	})
	fetches, bytes := web.Stats()
	return archRun{
		users:        users,
		crawlFetches: fetches,
		crawlBytes:   bytes,
		uploadBytes:  server.UploadBytes(),
		serverClicks: server.Store().Len(),
		recs:         recs,
	}
}

// runDistributed measures Figure 2 at the same scale: each peer analyzes
// its own browser cache; no uploads, no crawls; peers exchange feed
// recommendations in communities.
func runDistributed(opt FOptions, users int) archRun {
	model := topics.NewModel(opt.Seed, 16, 50, 80)
	wcfg := websim.DefaultConfig(opt.Seed, SimStart)
	wcfg.NumContentServers = scaleInt(wcfg.NumContentServers, opt.Scale)
	wcfg.NumAdServers = scaleInt(wcfg.NumAdServers, opt.Scale)
	wcfg.NumSpamServers = scaleInt(wcfg.NumSpamServers, opt.Scale)
	wcfg.NumMultimediaServers = scaleInt(wcfg.NumMultimediaServers, opt.Scale)
	web := websim.Generate(wcfg, model)

	gen := workload.NewGenerator(workload.DefaultConfigAdjusted(opt.Seed, SimStart, users, opt.Days), web)
	peers := make(map[string]*core.Peer, users)
	var peerList []*core.Peer
	for _, u := range gen.Users() {
		p := core.NewPeer(core.PeerConfig{User: u.ID})
		peers[u.ID] = p
		peerList = append(peerList, p)
	}

	// The browser itself fetches pages (that traffic exists in both
	// architectures); the peer pipeline reads the cached copy. Count
	// browse fetches, then subtract them: the remainder would be crawl
	// traffic, which must be zero.
	var browseFetches int64
	recs := 0
	var lastDay time.Time
	gen.GenerateAll(func(d workload.Day) {
		p := peers[d.User]
		for _, c := range d.Clicks {
			res, err := web.Fetch(c.URL) // the browser's own fetch
			browseFetches++
			if err != nil {
				continue
			}
			recs += len(p.ObservePageView(c, res))
		}
		lastDay = d.Date
	})
	fetches, _ := web.Stats()
	crawlFetches := fetches - browseFetches // must be 0

	_, exchange := core.ExchangeRecommendations(peerList, 0.25, lastDay.Add(24*time.Hour))
	exchanged := 0
	for _, recs := range exchange {
		exchanged += len(recs)
	}

	serverClicks := 0 // nothing is stored centrally
	return archRun{
		users:        users,
		crawlFetches: crawlFetches,
		uploadBytes:  0,
		serverClicks: serverClicks,
		recs:         recs,
		exchanged:    exchanged,
	}
}

// F1F2Comparison reproduces the Figure 1 vs Figure 2 architecture
// trade-off as a measured scaling table: central server load (stored
// clicks, crawl traffic, upload bytes) versus the distributed design's
// zeros plus community exchange.
func F1F2Comparison(opt FOptions) Result {
	opt = opt.withDefaults()
	values := map[string]float64{}
	tb := metrics.NewTable(
		"F1/F2 — Centralized (Fig. 1) vs Distributed (Fig. 2) Reef",
		"users", "central: stored clicks", "central: crawl fetches", "central: upload KB",
		"central: recs", "p2p: crawl fetches", "p2p: upload KB", "p2p: recs", "p2p: exchanged")
	for _, users := range opt.UserCounts {
		c := runCentralized(opt, users)
		d := runDistributed(opt, users)
		tb.AddRowf(
			fmt.Sprintf("%d", users),
			float64(c.serverClicks),
			float64(c.crawlFetches),
			fmt.Sprintf("%.0f", float64(c.uploadBytes)/1024),
			float64(c.recs),
			float64(d.crawlFetches),
			"0",
			float64(d.recs),
			float64(d.exchanged),
		)
		uf := fmt.Sprintf("_u%d", users)
		values["central_clicks"+uf] = float64(c.serverClicks)
		values["central_crawl"+uf] = float64(c.crawlFetches)
		values["central_upload"+uf] = float64(c.uploadBytes)
		values["central_recs"+uf] = float64(c.recs)
		values["p2p_crawl"+uf] = float64(d.crawlFetches)
		values["p2p_recs"+uf] = float64(d.recs)
		values["p2p_exchanged"+uf] = float64(d.exchanged)
	}
	tb.AddNote("paper §3/§4: the centralized design pays storage+crawl+upload per user; the distributed design pays none (browser cache), gains collaborative exchange, and removes the single point of failure")
	return Result{Table: tb, Values: values}
}
