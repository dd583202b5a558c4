package reef_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/routing"
	"reef/internal/websim"
)

// walBytesSlack is the stated slack of every WAL byte budget: a row may
// append up to 10% more bytes than were measured when it was set, so
// an encoding tweak passes and a second record never does. Record
// counts carry no slack: they are pinned exactly, and a change that
// journals fewer records lowers its row.
const walBytesSlack = 0.10

// TestWALBudgets is the WAL table of the count budgets: the records and
// bytes one control op appends to a file-backed node's journal, read as
// StorageInfo deltas. The node has three shards, so a row also pins that
// an op journals once however the users it touches are placed. The
// replicated-batch row is a click batch spanning all three shards, a
// flag and a replication position, applied as a replica: each record
// is journaled once, as received, and still lands on its users' shards.
func TestWALBudgets(t *testing.T) {
	ctx := context.Background()
	web := testWeb(74)
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
		reef.WithShards(3),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// Setup, outside every row: a pending recommendation for u1, and a
	// reliable subscription of u3 holding one leased event.
	feeds := feedURLs(web)
	at := dt0
	for _, s := range web.Servers(websim.KindContent) {
		for path := range s.Pages {
			at = at.Add(time.Second)
			if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "u1", URL: s.URL(path), At: at}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dep.RunPipeline(at)
	recs, err := dep.Recommendations(ctx, "u1")
	if err != nil || len(recs) == 0 {
		t.Fatalf("Recommendations(u1) = (%d, %v), want at least one", len(recs), err)
	}
	held, err := dep.Subscribe(ctx, "u3", feeds[1], reef.WithGuarantee(reef.AtLeastOnce))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feeds[1], "title": "t", "link": "http://x.test/item",
	}}); err != nil {
		t.Fatal(err)
	}
	leased, err := dep.FetchEvents(ctx, "u3", held.ID, 1)
	if err != nil || len(leased) != 1 {
		t.Fatalf("FetchEvents = (%d, %v), want one event", len(leased), err)
	}

	base, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	baseAds := dep.FlaggedServers("ad")
	var clicks []reef.Click
	slots := make(map[int]bool)
	for _, u := range []string{"alice", "dave", "ivan"} {
		slots[routing.UserSlot(u, 3)] = true
		clicks = append(clicks, reef.Click{User: u, URL: "http://pages.test/" + u, At: dt0})
	}
	if len(slots) != 3 {
		t.Fatalf("the batch's users cover shards %v, want all three", slots)
	}

	for _, row := range []struct {
		name           string
		records, bytes int64 // measured when the row was set
		op             func() error
		check          func(t *testing.T)
	}{
		{name: "best-effort subscribe", records: 1, bytes: 164, op: func() error {
			_, err := dep.Subscribe(ctx, "u2", feeds[0])
			return err
		}},
		{name: "reliable subscribe", records: 1, bytes: 180, op: func() error {
			_, err := dep.Subscribe(ctx, "u4", feeds[1], reef.WithGuarantee(reef.AtLeastOnce))
			return err
		}},
		{name: "unsubscribe", records: 1, bytes: 103, op: func() error {
			return dep.Unsubscribe(ctx, "u2", feeds[0])
		}},
		{name: "accept", records: 1, bytes: 28, op: func() error {
			return dep.AcceptRecommendation(ctx, "u1", recs[0].ID)
		}},
		{name: "cursor ack", records: 1, bytes: 59, op: func() error {
			return dep.Ack(ctx, "u3", held.ID, leased[0].Seq, false)
		}},
		{name: "replicated batch", records: 3, bytes: 158, op: func() error {
			return dep.ApplyReplicated([]durable.Record{
				durable.ClicksRecord(clicks),
				durable.FlagRecord("ads.test", 1),
				durable.ReplPositionRecord(durable.ReplPosition{Source: "a", Epoch: 1, Applied: 3}),
			})
		}, check: func(t *testing.T) {
			stats, err := dep.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				k := fmt.Sprintf("shard%d_clicks_stored", i)
				if got := stats[k] - base[k]; got != 1 {
					t.Errorf("shard %d stores %v replicated clicks, want 1", i, got)
				}
			}
			if got := dep.FlaggedServers("ad") - baseAds; got != 1 {
				t.Errorf("FlaggedServers(ad) grew by %d, want 1", got)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			before, err := dep.StorageInfo(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := row.op(); err != nil {
				t.Fatal(err)
			}
			after, err := dep.StorageInfo(ctx)
			if err != nil {
				t.Fatal(err)
			}
			records, bytes := after.WALRecords-before.WALRecords, after.WALBytes-before.WALBytes
			t.Logf("%d WAL records, %d B", records, bytes)
			if records != row.records {
				t.Errorf("appended %d WAL records, budget %d", records, row.records)
			}
			if limit := float64(row.bytes) * (1 + walBytesSlack); bytes <= 0 || float64(bytes) > limit {
				t.Errorf("appended %d WAL bytes, budget %d + %.0f%%", bytes, row.bytes, 100*walBytesSlack)
			}
			if row.check != nil {
				row.check(t)
			}
		})
	}
}

// TestWALPipelineFlagsOncePerHost pins that a pipeline round journals one
// flag record per newly set (host, flag) bit, not one per crawled page:
// every page of a host comes back from the same crawl batch, and only the
// first sets the host's flag.
func TestWALPipelineFlagsOncePerHost(t *testing.T) {
	ctx := context.Background()
	web := testWeb(75)
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	at := dt0
	var clicks []reef.Click
	for _, kind := range []websim.ServerKind{websim.KindContent, websim.KindAd, websim.KindSpam} {
		for _, s := range web.Servers(kind) {
			for path := range s.Pages {
				at = at.Add(time.Second)
				clicks = append(clicks, reef.Click{User: "u1", URL: s.URL(path), At: at})
			}
		}
	}
	if _, err := dep.IngestClicks(ctx, clicks); err != nil {
		t.Fatal(err)
	}
	flags := []string{"crawled", "ad", "spam", "multimedia"}
	flagged := func() int {
		n := 0
		for _, f := range flags {
			n += dep.FlaggedServers(f)
		}
		return n
	}
	before, err := dep.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	flaggedBefore := flagged()
	stats := dep.RunPipeline(at)
	after, err := dep.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	changed := flagged() - flaggedBefore
	records := after.WALRecords - before.WALRecords
	t.Logf("%d pages crawled, %d host flags set, %d WAL records", stats.Crawled, changed, records)
	if changed == 0 || stats.Crawled <= changed {
		t.Fatalf("crawled %d pages setting %d host flags; the test needs hosts with several pages", stats.Crawled, changed)
	}
	if records != int64(changed) {
		t.Errorf("pipeline appended %d WAL records, want %d (one per host flag set)", records, changed)
	}
}
