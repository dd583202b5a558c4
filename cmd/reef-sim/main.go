// Command reef-sim runs the full closed-loop Reef simulation through the
// public Deployment API: synthetic web, browsing workload, the
// centralized deployment with hosted per-user frontends, WAIF feed
// polling, and simulated users who accept recommendations and click or
// ignore the events they receive. It prints a day-by-day digest and a
// final summary.
//
//	reef-sim -users 5 -days 21 -seed 2006
//
// The tables verb regenerates the paper's evaluation instead: every
// table and figure of DESIGN.md §4 (e1 e2 e3 f1 f2 a1 a2 a3) at paper
// scale, or the ones named; -quick runs them at reduced scale.
//
//	reef-sim tables                 # every table, paper scale
//	reef-sim tables e1 e3           # just E1 and E3
//	reef-sim tables -quick e1       # fast scaled-down E1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"reef"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "tables" {
		os.Exit(runTables(os.Args[2:], os.Stdout, os.Stderr))
	}
	users := flag.Int("users", 5, "number of simulated users")
	days := flag.Int("days", 21, "observation window in days")
	seed := flag.Int64("seed", 2006, "random seed")
	scale := flag.Float64("scale", 0.3, "web scale")
	clickProb := flag.Float64("click", 0.3, "probability a user clicks a sidebar event")
	flag.Parse()
	if err := run(*users, *days, *seed, *scale, *clickProb); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(users, days int, seed int64, scale, clickProb float64) error {
	ctx := context.Background()
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	model := topics.NewModel(seed, 16, 50, 80)
	wcfg := websim.DefaultConfig(seed, start)
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * scale)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * scale)
	wcfg.NumSpamServers = int(float64(wcfg.NumSpamServers) * scale)
	web := websim.Generate(wcfg, model)

	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithPollInterval(2*time.Hour),
		reef.WithSidebar(0, 48*time.Hour),
	)
	if err != nil {
		return err
	}
	defer func() { _ = dep.Close() }()

	gen := workload.NewGenerator(workload.DefaultConfigAdjusted(seed, start, users, days), web)
	rng := rand.New(rand.NewSource(seed + 99))
	var userIDs []string
	for _, u := range gen.Users() {
		userIDs = append(userIDs, u.ID)
	}

	gen.GenerateAll(func(d workload.Day) {
		batch := make([]reef.Click, 0, len(d.Clicks))
		for _, c := range d.Clicks {
			batch = append(batch, reef.Click{User: d.User, URL: c.URL, At: c.At})
		}
		if len(batch) > 0 {
			if _, err := dep.IngestClicks(ctx, batch); err != nil {
				log.Printf("ingest: %v", err)
			}
		}
		now := d.Date.Add(24 * time.Hour)
		stats := dep.RunPipeline(now)
		for _, user := range userIDs {
			recs, err := dep.Recommendations(ctx, user)
			if err != nil {
				log.Printf("recommendations: %v", err)
				continue
			}
			for _, rec := range recs {
				if err := dep.AcceptRecommendation(ctx, user, rec.ID); err != nil {
					log.Printf("accept: %v", err)
				}
			}
		}
		web.AdvanceTo(now)
		_, published := dep.PollFeeds(ctx, now)

		// Users react to their sidebars: click some events, let the rest
		// age toward TTL expiry; both signals feed the recommender
		// (closed loop).
		for _, user := range userIDs {
			for _, item := range dep.Sidebar(user) {
				if rng.Float64() < clickProb {
					dep.ClickItem(ctx, user, item.ID, now)
				}
			}
			dep.ExpireSidebar(user, now)
		}
		if stats.Recommendations > 0 || published > 0 {
			fmt.Printf("%s %s: recs=%d pushed=%d\n",
				d.Date.Format("01-02"), d.User, stats.Recommendations, published)
		}
	})

	snap, err := dep.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\n=== summary after %d users x %d days ===\n", users, days)
	fmt.Printf("clicks: %.0f over %.0f servers (%d flagged ad)\n",
		snap["clicks_stored"], snap["distinct_servers"], dep.FlaggedServers("ad"))
	fmt.Printf("feeds found: %.0f, proxy manages %.0f\n",
		snap["feeds_discovered"], snap["proxy_feeds"])
	for _, user := range userIDs {
		subs, err := dep.Subscriptions(ctx, user)
		if err != nil {
			return err
		}
		shown, clicked, deleted, expired := dep.SidebarStats(user)
		fmt.Printf("%s: subs=%d sidebar shown=%d clicked=%d deleted=%d expired=%d\n",
			user, len(subs), shown, clicked, deleted, expired)
	}
	return nil
}
