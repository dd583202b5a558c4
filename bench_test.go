package reef_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"reef"
	"reef/internal/eventalg"
	"reef/internal/experiments"
	"reef/internal/ir"
	"reef/internal/pubsub"
)

// One bench per reproduced table/figure (DESIGN.md §4). Benches run the
// experiment harnesses at reduced scale so `go test -bench=.` stays brisk;
// `reef-sim tables` runs the paper-scale versions.

// BenchmarkE1TopicDiscovery regenerates the §3.2 crawl-statistics table.
func BenchmarkE1TopicDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1TopicDiscovery(experiments.E1Options{
			Seed: 2006, Users: 3, Days: 6, Scale: 0.1,
		})
		if r.Values["requests"] == 0 {
			b.Fatal("no requests measured")
		}
	}
}

// BenchmarkE2RecommendationRate regenerates the §6 recommendations-per-day
// claim.
func BenchmarkE2RecommendationRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E2RecommendationRate(experiments.E2Options{
			Seed: 2006, Users: 3, Days: 6, Scale: 0.1,
		})
		if r.Values["recs_per_user_day"] < 0 {
			b.Fatal("bad rate")
		}
	}
}

// BenchmarkE3PrecisionSweep regenerates the §3.3 precision-vs-N sweep.
func BenchmarkE3PrecisionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E3PrecisionSweep(experiments.E3Options{
			Seed: 2006, Stories: 200, AttendedPages: 1200, Trials: 1,
			TermCounts: []int{5, 30, 200},
		})
		if len(r.Values) == 0 {
			b.Fatal("no sweep values")
		}
	}
}

// BenchmarkF1Centralized and BenchmarkF2Distributed regenerate the
// Figure 1 / Figure 2 architecture comparison.
func BenchmarkF1Centralized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.F1F2Comparison(experiments.FOptions{
			Seed: 2006, UserCounts: []int{3}, Days: 3, Scale: 0.08,
		})
		if r.Values["central_clicks_u3"] == 0 {
			b.Fatal("no centralized measurements")
		}
	}
}

func BenchmarkF2Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.F1F2Comparison(experiments.FOptions{
			Seed: 2006, UserCounts: []int{3}, Days: 3, Scale: 0.08,
		})
		if r.Values["p2p_crawl_u3"] != 0 {
			b.Fatal("distributed run crawled")
		}
	}
}

// BenchmarkA1TermSelection regenerates the footnote-1 ablation.
func BenchmarkA1TermSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A1TermSelection(experiments.E3Options{
			Seed: 2006, Stories: 150, AttendedPages: 800, Trials: 1,
		})
	}
}

// BenchmarkA2Covering regenerates the covering-propagation ablation.
func BenchmarkA2Covering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.A2Covering(experiments.A2Options{
			Seed: 2006, Leaves: 6, FeedsPerLeaf: 6, Events: 50,
		})
		if r.Values["table_on"] >= r.Values["table_off"] {
			b.Fatal("covering ineffective")
		}
	}
}

// BenchmarkA3AdFilter regenerates the flag-and-skip ablation.
func BenchmarkA3AdFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A3AdFilter(experiments.A3Options{
			Seed: 2006, Users: 2, Days: 3, Scale: 0.08,
		})
	}
}

// Micro-benchmarks for what the canonical harness (bench/probes.go) does
// not already replay from a workload's own inputs.

// BenchmarkHostedDelivery measures what the publisher pays per hosted
// subscription now that it displays the event itself: one event to 1 000
// users' frontends whose sidebars are full, so every delivery also evicts
// the oldest item and feeds that back to the recommender.
func BenchmarkHostedDelivery(b *testing.B) {
	const subs, feed = 1000, "http://f.test/feed.xml"
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(32)), reef.WithSidebar(4, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	for i := 0; i < subs; i++ {
		if _, err := dep.Subscribe(ctx, fmt.Sprintf("user-%04d", i), feed); err != nil {
			b.Fatal(err)
		}
	}
	ev := reef.Event{Attrs: feedItemAttrs(feed, 1)}
	for i := 0; i < 4; i++ {
		if n, err := dep.PublishEvent(ctx, ev); err != nil || n != subs {
			b.Fatalf("PublishEvent = (%d, %v), want %d deliveries", n, err, subs)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.PublishEvent(ctx, ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	deliveries := float64(b.N) * subs
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/deliveries, "ns/delivery")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/deliveries, "allocs/delivery")
}

// TestIndexMatchSteadyStateAllocs pins the allocation discipline of the
// broker's match path: the index keeps no per-call state, so with a
// reused result buffer matching an event allocates nothing — on the hash
// path and on the scan path alike.
func TestIndexMatchSteadyStateAllocs(t *testing.T) {
	ix := pubsub.NewIndex()
	for _, src := range []string{`topic = "sports" and hits > 3`, `hits > 3 and topic prefix "sp"`} {
		for i := 0; i < 50; i++ {
			f, err := eventalg.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			ix.Add(f)
		}
	}
	tu := eventalg.Tuple{"topic": eventalg.String("sports"), "hits": eventalg.Int(10)}
	buf := ix.MatchAppend(tu, make([]int64, 0, 128))
	if len(buf) != 100 {
		t.Fatalf("matched %d filters, want 100", len(buf))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		buf = ix.MatchAppend(tu, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Index match path allocates %.2f/op, want 0", allocs)
	}
}

func BenchmarkBM25RankTop(b *testing.B) {
	c := ir.NewCorpus()
	for i := 0; i < 500; i++ {
		c.AddText(string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+i/676)),
			"alpha beta gamma delta epsilon zeta eta theta")
	}
	s := ir.NewBM25(c, ir.DefaultBM25)
	q := map[string]float64{"alpha": 1, "gamma": 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RankTop(q, 10)
	}
}

func BenchmarkFilterParse(b *testing.B) {
	src := `topic = "sports" and hits > 3 and url prefix "http://news"`
	for i := 0; i < b.N; i++ {
		if _, err := eventalg.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := []string{"generalizations", "oscillators", "relational", "connected", "happiness"}
	for i := 0; i < b.N; i++ {
		ir.Stem(words[i%len(words)])
	}
}
