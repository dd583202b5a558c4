package experiments

import (
	"context"
	"fmt"
	"time"

	"reef/internal/core"
	"reef/internal/eventalg"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/topics"
	"reef/internal/waif"
	"reef/internal/websim"
	"reef/internal/workload"
)

// A2Options tunes the covering-propagation ablation.
type A2Options struct {
	// Seed drives randomness.
	Seed int64
	// Leaves is the star fan-out (default 24).
	Leaves int
	// FeedsPerLeaf is how many feed subscriptions each leaf holds
	// (default 12); half are covered by a broad per-leaf filter.
	FeedsPerLeaf int
	// Events published at the hub (default 400).
	Events int
}

func (o A2Options) withDefaults() A2Options {
	if o.Leaves <= 0 {
		o.Leaves = 24
	}
	if o.FeedsPerLeaf <= 0 {
		o.FeedsPerLeaf = 12
	}
	if o.Events <= 0 {
		o.Events = 400
	}
	return o
}

// runCovering measures one overlay configuration.
func runCovering(opt A2Options, covering bool) (tableSize int, subsForwarded, eventsForwarded float64, err error) {
	ov := pubsub.NewOverlay(pubsub.WithCovering(covering))
	defer ov.Close()
	hub, leaves, err := pubsub.BuildStar(ov, "a2", opt.Leaves)
	if err != nil {
		return 0, 0, 0, err
	}

	// Each leaf subscribes to the broad feed-item filter (a "give me all
	// feed items" sidebar) plus narrow per-feed filters that the broad
	// one covers. Only forwarding is counted, so the leaves discard what
	// they receive.
	discard := pubsub.WithHandler(func(pubsub.Event) {})
	for li, leaf := range leaves {
		if _, err := leaf.Subscribe(eventalg.NewFilter(
			eventalg.C("type", eventalg.OpEq, eventalg.String(waif.EventAttrType)),
		), discard); err != nil {
			return 0, 0, 0, err
		}
		for f := 0; f < opt.FeedsPerLeaf; f++ {
			feedURL := fmt.Sprintf("http://c%04d.web.test/feeds/%d.xml", li, f)
			if _, err := leaf.Subscribe(waif.ItemFilter(feedURL), discard); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	if err := ov.Quiesce(30 * time.Second); err != nil {
		return 0, 0, 0, err
	}

	// Publish feed items at the hub.
	for i := 0; i < opt.Events; i++ {
		feedURL := fmt.Sprintf("http://c%04d.web.test/feeds/%d.xml", i%opt.Leaves, i%opt.FeedsPerLeaf)
		ev := pubsub.NewEvent(feedURL, eventalg.Tuple{
			"type":  eventalg.String(waif.EventAttrType),
			"feed":  eventalg.String(feedURL),
			"title": eventalg.String(fmt.Sprintf("item %d", i)),
		}, nil)
		if err := hub.Publish(context.Background(), ev); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := ov.Quiesce(30 * time.Second); err != nil {
		return 0, 0, 0, err
	}
	snap := ov.Metrics().Snapshot()
	return hub.RoutingTableSize(), snap["subs_forwarded"], snap["events_forwarded"], nil
}

// A2Covering measures what covering-based subscription propagation saves
// the broker overlay: hub routing-table entries and subscription-control
// traffic, at identical event delivery.
func A2Covering(opt A2Options) Result {
	opt = opt.withDefaults()
	values := map[string]float64{}
	tb := metrics.NewTable(
		"A2 — Covering-based subscription propagation (substrate ablation, paper §5.3 systems)",
		"configuration", "hub table size", "subs forwarded", "events forwarded")
	for _, covering := range []bool{true, false} {
		table, subs, events, err := runCovering(opt, covering)
		name := "covering on"
		key := "on"
		if !covering {
			name, key = "covering off", "off"
		}
		if err != nil {
			tb.AddRow(name, "error: "+err.Error())
			continue
		}
		tb.AddRowf(name, float64(table), subs, events)
		values["table_"+key] = float64(table)
		values["subs_"+key] = subs
		values["events_"+key] = events
	}
	if values["table_off"] > 0 {
		values["table_reduction"] = 1 - values["table_on"]/values["table_off"]
	}
	tb.AddNote("star of %d leaves, %d feed filters per leaf plus one covering filter each, %d events",
		opt.Leaves, opt.FeedsPerLeaf, opt.Events)
	return Result{Table: tb, Values: values}
}

// A3Options tunes the ad/spam-filtering ablation.
type A3Options struct {
	// Seed drives randomness.
	Seed int64
	// Users and Days size the workload (defaults 3 and 10).
	Users, Days int
	// Scale shrinks the web (default 0.2).
	Scale float64
}

func (o A3Options) withDefaults() A3Options {
	if o.Users <= 0 {
		o.Users = 3
	}
	if o.Days <= 0 {
		o.Days = 10
	}
	if o.Scale <= 0 {
		o.Scale = 0.2
	}
	return o
}

// A3AdFilter measures what §3.1's flag-and-skip policy buys: crawl traffic
// and profile-corpus hygiene with the classifier honored versus ignored.
func A3AdFilter(opt A3Options) Result {
	opt = opt.withDefaults()
	values := map[string]float64{}
	tb := metrics.NewTable(
		"A3 — Ad/spam flagging ablation (paper §3.1/§3.2)",
		"configuration", "crawl fetches", "crawl MB", "corpus docs", "spam docs in corpus")

	for _, filtering := range []bool{true, false} {
		model := topics.NewModel(opt.Seed, 16, 50, 80)
		wcfg := websim.DefaultConfig(opt.Seed, SimStart)
		wcfg.NumContentServers = scaleInt(wcfg.NumContentServers, opt.Scale)
		wcfg.NumAdServers = scaleInt(wcfg.NumAdServers, opt.Scale)
		wcfg.NumSpamServers = scaleInt(wcfg.NumSpamServers, opt.Scale)
		wcfg.NumMultimediaServers = scaleInt(wcfg.NumMultimediaServers, opt.Scale)
		web := websim.Generate(wcfg, model)

		server := core.NewServer(core.ServerConfig{Fetcher: web})
		if !filtering {
			server.DisableFlagSkip()
		}
		gen := workload.NewGenerator(workload.DefaultConfigAdjusted(opt.Seed, SimStart, opt.Users, opt.Days), web)
		gen.GenerateAll(func(d workload.Day) {
			_ = server.ReceiveClicks(d.Clicks)
			server.RunPipeline(d.Date.Add(24 * time.Hour))
			for _, u := range gen.Users() {
				server.Recommendations(u.ID)
			}
		})
		fetches, bytes := web.Stats()
		spamDocs := 0
		for _, id := range server.Corpus().IDs() {
			if host, _, err := websim.SplitURL(id); err == nil {
				if s, ok := web.Server(host); ok && s.Kind == websim.KindSpam {
					spamDocs++
				}
			}
		}
		name, key := "flagging on", "on"
		if !filtering {
			name, key = "flagging off", "off"
		}
		tb.AddRowf(name, float64(fetches),
			fmt.Sprintf("%.2f", float64(bytes)/(1<<20)),
			float64(server.Corpus().N()), float64(spamDocs))
		values["fetches_"+key] = float64(fetches)
		values["bytes_"+key] = float64(bytes)
		values["spamdocs_"+key] = float64(spamDocs)
	}
	if values["fetches_off"] > 0 {
		values["fetch_reduction"] = 1 - values["fetches_on"]/values["fetches_off"]
	}
	tb.AddNote("flagging marks ad/spam/multimedia servers on first contact and never crawls them again; off re-crawls every URL and lets spam text pollute the background corpus")
	return Result{Table: tb, Values: values}
}
