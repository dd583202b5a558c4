// Quickstart: the smallest end-to-end Reef loop, driven entirely through
// the public Deployment API. A user browses a page on the synthetic web;
// the centralized deployment crawls it, discovers the site's RSS feed,
// and recommends a subscription; accepting it places the subscription and
// the WAIF proxy then polls the feed and pushes new items into the user's
// sidebar.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"reef"
	"reef/internal/topics"
	"reef/internal/websim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

	// A small synthetic web where every content server hosts a feed.
	model := topics.NewModel(1, 8, 30, 40)
	wcfg := websim.DefaultConfig(1, start)
	wcfg.NumContentServers = 20
	wcfg.NumAdServers = 10
	wcfg.NumSpamServers = 2
	wcfg.NumMultimediaServers = 1
	wcfg.FeedProb = 1.0
	web := websim.Generate(wcfg, model)

	// The centralized Reef deployment (Figure 1) behind the public API.
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		return err
	}
	defer func() { _ = dep.Close() }()

	// 1. Alice browses a page. Her attention is recorded and uploaded.
	site := web.Servers(websim.KindContent)[0]
	var pageURL string
	for _, p := range site.Pages {
		pageURL = site.URL(p.Path)
		break
	}
	fmt.Printf("alice browses %s\n", pageURL)
	if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "alice", URL: pageURL, At: start}}); err != nil {
		return err
	}

	// 2. The deployment's nightly pipeline crawls the page, finds the feed.
	stats := dep.RunPipeline(start.Add(24 * time.Hour))
	fmt.Printf("pipeline: crawled=%d feeds discovered=%d recommendations=%d\n",
		stats.Crawled, stats.FeedsDiscovered, stats.Recommendations)

	// 3. Alice lists her pending recommendations and accepts them.
	recs, err := dep.Recommendations(ctx, "alice")
	if err != nil {
		return err
	}
	for _, rec := range recs {
		fmt.Printf("recommendation %s: %s %s (%s)\n", rec.ID, rec.Kind, rec.FeedURL, rec.Reason)
		if err := dep.AcceptRecommendation(ctx, "alice", rec.ID); err != nil {
			return err
		}
	}
	subs, err := dep.Subscriptions(ctx, "alice")
	if err != nil {
		return err
	}
	fmt.Printf("alice now has %d subscription(s)\n", len(subs))

	// 4. The WAIF proxy polls the feed; a week of items arrive push-style.
	dep.PollFeeds(ctx, start.Add(24*time.Hour)) // priming poll
	web.AdvanceTo(start.Add(8 * 24 * time.Hour))
	_, published := dep.PollFeeds(ctx, start.Add(8*24*time.Hour))
	fmt.Printf("WAIF proxy pushed %d new items\n", published)

	// 5. The items are in Alice's sidebar; clicking one feeds the loop.
	for _, item := range dep.Sidebar("alice") {
		fmt.Printf("sidebar: %s -> %s\n", item.Title, item.Link)
	}
	if items := dep.Sidebar("alice"); len(items) > 0 {
		link, _ := dep.ClickItem(ctx, "alice", items[0].ID, start.Add(9*24*time.Hour))
		fmt.Printf("alice clicks the first item (%s); the click re-enters her attention stream\n", link)
	}
	return nil
}
