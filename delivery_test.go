package reef_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
	"reef/internal/simclock"
	"reef/internal/waif"
	"reef/reefclient"
	"reef/reefhttp"
)

// feedItemAttrs builds event attributes that match the subscription
// filter a direct feed subscription installs (waif.ItemFilter).
func feedItemAttrs(feedURL string, n int) map[string]string {
	return map[string]string{
		"type": "feed-item",
		"feed": feedURL,
		"n":    strconv.Itoa(n),
	}
}

// wantRetained checks that the reliable queues retain want events right
// now: retention happens on the publisher's goroutine, so a publish that
// returned is already in every matching queue and there is nothing to
// wait for.
func wantRetained(t *testing.T, ctx context.Context, stats func(context.Context) (reef.Stats, error), want float64) {
	t.Helper()
	st, err := stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := st["delivery_retained"]; got != want {
		t.Fatalf("delivery_retained = %v as the publish returned, want %v", got, want)
	}
}

// TestSubscribeConfigValidation pins the typed config errors on the
// option surface itself.
func TestSubscribeConfigValidation(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(20)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	feeds := feedURLs(testWeb(20))

	var cfgErr *reef.ConfigError
	_, err = dep.Subscribe(ctx, "u", feeds[0], reef.WithMaxAttempts(3))
	if !errors.As(err, &cfgErr) || cfgErr.Field != "max_attempts" {
		t.Fatalf("max attempts without AtLeastOnce: err = %v, want ConfigError{Field: max_attempts}", err)
	}
	if !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("ConfigError does not unwrap to ErrInvalidArgument: %v", err)
	}
	if _, err := dep.Subscribe(ctx, "u", feeds[0], reef.WithGuarantee(reef.AtLeastOnce), reef.WithMaxAttempts(-1)); !errors.As(err, &cfgErr) {
		t.Fatalf("negative max attempts: err = %v, want ConfigError", err)
	}
	if _, err := reef.ParseDeliveryGuarantee("exactly_once"); !errors.As(err, &cfgErr) {
		t.Fatalf("unknown guarantee: err = %v, want ConfigError", err)
	}

	// Reliable calls against a best-effort subscription answer with the
	// typed config error, and against an unknown one with ErrNotFound.
	if _, err := dep.Subscribe(ctx, "u", feeds[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.FetchEvents(ctx, "u", feeds[0], 10); !errors.As(err, &cfgErr) {
		t.Fatalf("FetchEvents on best-effort sub: err = %v, want ConfigError", err)
	}
	if err := dep.Ack(ctx, "u", "http://nowhere.test/feed.xml", 1, false); !errors.Is(err, reef.ErrNotFound) {
		t.Fatalf("Ack on unknown sub: err = %v, want ErrNotFound", err)
	}
}

// TestReliableConsumerE2E is the reliable-delivery acceptance test over
// the full stack: reefclient -> reefhttp -> centralized deployment. An
// at-least-once subscriber consumes a few events, is killed mid-stream
// (its leases die with it), reconnects, and must observe every event
// exactly once in order. Events that exhaust their delivery attempts
// surface in /v1/admin/deadletter and drain through it.
func TestReliableConsumerE2E(t *testing.T) {
	ctx := context.Background()
	web := testWeb(21)
	vt := simclock.NewVirtual(dt0)
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithClock(vt))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	srv := httptest.NewServer(reefhttp.NewHandler(dep, nil))
	defer srv.Close()

	feed := feedURLs(web)[0]
	const user = "alice"
	cli := reefclient.New(srv.URL, reefclient.WithHTTPClient(srv.Client()))
	sub, err := cli.Subscribe(ctx, user, feed,
		reef.WithGuarantee(reef.AtLeastOnce),
		reef.WithAckTimeout(time.Second),
		reef.WithMaxAttempts(3))
	if err != nil {
		t.Fatalf("Subscribe over the wire: %v", err)
	}
	if sub.Guarantee != "at_least_once" {
		t.Fatalf("Subscription = %+v, want at_least_once", sub)
	}

	const total = 10
	for i := 1; i <= total; i++ {
		if _, err := cli.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feed, i)}); err != nil {
			t.Fatalf("PublishEvent %d: %v", i, err)
		}
	}
	wantRetained(t, ctx, cli.Stats, total)

	// Consumer one: lease four, ack through seq 3, then die. The lease on
	// seq 4 dies with it — only the cursor survives a consumer.
	first, err := cli.FetchEvents(ctx, user, feed, 4)
	if err != nil {
		t.Fatalf("FetchEvents: %v", err)
	}
	if len(first) != 4 || first[0].Seq != 1 || first[3].Seq != 4 {
		t.Fatalf("first lease = %+v, want seqs 1..4", first)
	}
	if err := cli.Ack(ctx, user, feed, 3, false); err != nil {
		t.Fatalf("Ack(3): %v", err)
	}

	// Reconnected consumer: after the dead consumer's lease expires, it
	// must see seq 4 again (redelivered, attempt 2) and then every later
	// event exactly once, in order.
	cli2 := reefclient.New(srv.URL, reefclient.WithHTTPClient(srv.Client()))
	var seen []int64
	seenN := map[string]bool{}
	for len(seen) < total-3 {
		vt.Advance(35 * time.Second) // past ack timeout + max backoff
		evs, err := cli2.FetchEvents(ctx, user, feed, 0)
		if err != nil {
			t.Fatalf("FetchEvents after reconnect: %v", err)
		}
		for _, ev := range evs {
			if seenN[ev.Event.Attrs["n"]] {
				t.Fatalf("event n=%s observed twice", ev.Event.Attrs["n"])
			}
			seenN[ev.Event.Attrs["n"]] = true
			seen = append(seen, ev.Seq)
		}
		if len(evs) > 0 {
			if err := cli2.Ack(ctx, user, feed, evs[len(evs)-1].Seq, false); err != nil {
				t.Fatalf("Ack: %v", err)
			}
		}
	}
	for i, seq := range seen {
		if want := int64(4 + i); seq != want {
			t.Fatalf("reconnect observed seqs %v, want contiguous from 4", seen)
		}
		if want := strconv.Itoa(4 + i); !seenN[want] {
			t.Fatalf("event n=%s never observed", want)
		}
	}

	// Dead-letter path: two more events, never acked. Each fetch is one
	// attempt; past MaxAttempts=3 they land in the DLQ instead of being
	// delivered again.
	for i := total + 1; i <= total+2; i++ {
		if _, err := cli.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feed, i)}); err != nil {
			t.Fatal(err)
		}
	}
	wantRetained(t, ctx, cli.Stats, 2)
	for round := 0; round < 4; round++ {
		vt.Advance(35 * time.Second)
		if _, err := cli2.FetchEvents(ctx, user, feed, 0); err != nil {
			t.Fatalf("FetchEvents round %d: %v", round, err)
		}
	}
	dls, err := cli2.DeadLetters(ctx, user, feed)
	if err != nil {
		t.Fatalf("DeadLetters: %v", err)
	}
	if len(dls) != 2 {
		t.Fatalf("dead letters = %+v, want the 2 unacked events", dls)
	}
	for _, dl := range dls {
		if dl.Reason != "max-attempts" || dl.Attempts != 3 {
			t.Fatalf("dead letter = %+v, want reason max-attempts after 3 attempts", dl)
		}
	}
	// Aggregate view (no subscription filter) sees them too.
	if agg, err := cli2.DeadLetters(ctx, user, ""); err != nil || len(agg) != 2 {
		t.Fatalf("aggregate DeadLetters = (%+v, %v), want 2", agg, err)
	}
	drained, err := cli2.DrainDeadLetters(ctx, user, feed)
	if err != nil || len(drained) != 2 {
		t.Fatalf("DrainDeadLetters = (%+v, %v), want 2", drained, err)
	}
	if left, err := cli2.DeadLetters(ctx, user, feed); err != nil || len(left) != 0 {
		t.Fatalf("DeadLetters after drain = (%+v, %v), want empty", left, err)
	}
}

// TestReliableDeliveryCrashRecovery is the durability acceptance test
// for the cursor record family: a reliable subscription's cumulative
// cursor must survive an unclean crash byte-exactly (golden-state diff),
// at one shard and at three, with a mid-history snapshot so recovery
// crosses the snapshot/WAL boundary for both the subscription's delivery
// config and a post-snapshot cursor advance.
func TestReliableDeliveryCrashRecovery(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			web := testWeb(22)
			dir := t.TempDir()
			vt := simclock.NewVirtual(dt0)
			open := func() *reef.Centralized {
				dep, err := reef.NewCentralized(
					reef.WithFetcher(web),
					reef.WithClock(vt),
					reef.WithDataDir(dir),
					reef.WithShards(shards),
					reef.WithSyncPolicy(reef.SyncAlways),
					reef.WithSnapshotEvery(-1),
				)
				if err != nil {
					t.Fatalf("NewCentralized: %v", err)
				}
				return dep
			}
			dep := open()
			feeds := feedURLs(web)
			users := []string{"alice", "bob"}
			for i, u := range users {
				if _, err := dep.Subscribe(ctx, u, feeds[i],
					reef.WithGuarantee(reef.AtLeastOnce),
					reef.WithAckTimeout(2*time.Second),
					reef.WithMaxAttempts(4)); err != nil {
					t.Fatalf("Subscribe(%s): %v", u, err)
				}
			}
			for i := 1; i <= 6; i++ {
				if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feeds[0], i)}); err != nil {
					t.Fatal(err)
				}
			}
			wantRetained(t, ctx, dep.Stats, 6)
			if evs, err := dep.FetchEvents(ctx, "alice", feeds[0], 4); err != nil || len(evs) != 4 {
				t.Fatalf("FetchEvents = (%+v, %v), want 4 events", evs, err)
			}
			if err := dep.Ack(ctx, "alice", feeds[0], 3, false); err != nil {
				t.Fatalf("Ack(3): %v", err)
			}
			// Snapshot holds cursor 3; the advance to 4 lands in the
			// post-snapshot WAL tail, so recovery replays baseline + tail.
			if _, err := dep.Snapshot(ctx); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if err := dep.Ack(ctx, "alice", feeds[0], 4, false); err != nil {
				t.Fatalf("Ack(4): %v", err)
			}

			before, err := durabletest.Capture(ctx, dep, users, durabletest.DurableStatKeys)
			if err != nil {
				t.Fatal(err)
			}
			if err := durabletest.Crash(dep); err != nil {
				t.Fatalf("Crash: %v", err)
			}

			dep2 := open()
			defer func() { _ = dep2.Close() }()
			after, err := durabletest.Capture(ctx, dep2, users, durabletest.DurableStatKeys)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := durabletest.Diff(before, after)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatalf("recovered delivery state differs:\n%s", diff)
			}
			subs, err := dep2.Subscriptions(ctx, "alice")
			if err != nil {
				t.Fatal(err)
			}
			if len(subs) != 1 || subs[0].Acked != 4 || subs[0].Guarantee != "at_least_once" {
				t.Fatalf("recovered subscription = %+v, want at_least_once with acked_seq 4", subs)
			}

			// The cursor is live, not just visible: sequencing continues
			// past it for newly published events (the unacked retained
			// window is in-memory by design and died with the crash).
			if _, err := dep2.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feeds[0], 7)}); err != nil {
				t.Fatal(err)
			}
			wantRetained(t, ctx, dep2.Stats, 1)
			evs, err := dep2.FetchEvents(ctx, "alice", feeds[0], 0)
			if err != nil || len(evs) != 1 || evs[0].Seq != 5 {
				t.Fatalf("post-recovery FetchEvents = (%+v, %v), want one event at seq 5", evs, err)
			}
		})
	}
}

// TestReliableCursorSurvivesReshard pins that the cursor record family
// is routed by user like every other: a reliable subscription acked at
// one shard keeps its cursor reopened at three, advances there, and
// keeps the advance reopened at two.
func TestReliableCursorSurvivesReshard(t *testing.T) {
	ctx := context.Background()
	web := testWeb(23)
	dir := t.TempDir()
	vt := simclock.NewVirtual(dt0)
	open := func(shards int) *reef.Centralized {
		t.Helper()
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithClock(vt),
			reef.WithDataDir(dir),
			reef.WithShards(shards),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1),
		)
		if err != nil {
			t.Fatalf("opening at %d shards: %v", shards, err)
		}
		return dep
	}
	feed := feedURLs(web)[0]
	acked := func(dep *reef.Centralized, want int64) {
		t.Helper()
		subs, err := dep.Subscriptions(ctx, "carol")
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != 1 || subs[0].Acked != want || subs[0].Guarantee != "at_least_once" {
			t.Fatalf("subscription at %d shards = %+v, want at_least_once with acked_seq %d", dep.ShardCount(), subs, want)
		}
	}
	publishAndAck := func(dep *reef.Centralized, from, to int, ack int64) {
		t.Helper()
		for i := from; i <= to; i++ {
			if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feed, i)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dep.FetchEvents(ctx, "carol", feed, 0); err != nil {
			t.Fatal(err)
		}
		if err := dep.Ack(ctx, "carol", feed, ack, false); err != nil {
			t.Fatal(err)
		}
	}

	dep := open(1)
	if _, err := dep.Subscribe(ctx, "carol", feed, reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
		t.Fatal(err)
	}
	publishAndAck(dep, 1, 3, 2)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	dep = open(3)
	acked(dep, 2)
	// Sequencing resumes past the recovered cursor: the two new events
	// take seqs 3 and 4.
	publishAndAck(dep, 4, 5, 4)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	dep = open(2)
	defer func() { _ = dep.Close() }()
	acked(dep, 4)
}

// TestRetiredOrderingFieldRecovers pins that a data dir written while
// reliable subscriptions still journaled an advisory "ordering_key"
// recovers: the key is ignored in the snapshot and in the WAL tail alike,
// at one shard and at three. The recovered queues
// are live, listings carry no ordering key, and the next snapshot drops
// it.
func TestRetiredOrderingFieldRecovers(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			web := testWeb(26)
			feeds := feedURLs(web)
			users := []string{"alice", "bob"}
			dir := t.TempDir()
			writeRetiredOrderingDir(t, dir, users, feeds)

			dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithDataDir(dir),
				reef.WithShards(shards), reef.WithSyncPolicy(reef.SyncAlways))
			if err != nil {
				t.Fatalf("recovering a dir with ordering keys: %v", err)
			}
			defer func() { _ = dep.Close() }()
			for i, u := range users {
				subs, err := dep.Subscriptions(ctx, u)
				if err != nil || len(subs) != 1 || subs[0].Guarantee != "at_least_once" {
					t.Fatalf("Subscriptions(%s) = (%+v, %v), want one at_least_once subscription", u, subs, err)
				}
				if raw, _ := json.Marshal(subs); strings.Contains(string(raw), "ordering_key") {
					t.Errorf("listing of %s still carries an ordering key: %s", u, raw)
				}
				if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feeds[i], 1)}); err != nil {
					t.Fatal(err)
				}
				if evs, err := dep.FetchEvents(ctx, u, feeds[i], 0); err != nil || len(evs) != 1 {
					t.Fatalf("FetchEvents(%s) = (%+v, %v), want the one event published after recovery", u, evs, err)
				}
			}
			if _, err := dep.Snapshot(ctx); err != nil {
				t.Fatal(err)
			}
			for _, snap := range snapshotFiles(t, dir) {
				if data, err := os.ReadFile(snap); err != nil || bytes.Contains(data, []byte("ordering_key")) {
					t.Errorf("snapshot %s after recovery: err %v, or it still carries an ordering key", snap, err)
				}
			}
		})
	}
}

// writeRetiredOrderingDir writes a single-journal data dir as reliable
// subscriptions used to journal it: users[0]'s subscription to feeds[0]
// in a version 1 JSON snapshot, users[1]'s to feeds[1] in the WAL tail,
// each delivery config with an "ordering_key".
func writeRetiredOrderingDir(t *testing.T, dir string, users, feeds []string) {
	t.Helper()
	sub := func(i int) durable.SubscriptionState {
		return durable.SubscriptionState{
			User: users[i], Kind: reef.KindSubscribeFeed, FeedURL: feeds[i],
			Filter: waif.ItemFilter(feeds[i]).String(), At: dt0,
			Delivery: &durable.DeliveryState{Guarantee: "at_least_once", MaxAttempts: 3},
		}
	}
	b, err := durable.OpenFile(dir, durable.FileOptions{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// The ordering key predates binary payloads and snapshots: journal
	// the record as the JSON one those releases wrote.
	payload, err := json.Marshal(sub(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := durable.Record{Op: durable.OpSubscribe, Version: durable.VersionJSON, Payload: addRetiredOrdering(t, payload)}
	if err := b.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(sub(0))
	if err != nil {
		t.Fatal(err)
	}
	snap = fmt.Appendf(nil, `{"version":1,"state":{"version":1,"subscriptions":[%s]}}`, snap)
	if err := os.WriteFile(filepath.Join(dir, "snap-00000000.json"), addRetiredOrdering(t, snap), 0o644); err != nil {
		t.Fatal(err)
	}
}

// addRetiredOrdering adds an "ordering_key" to every at-least-once delivery
// config in a JSON document.
func addRetiredOrdering(t *testing.T, data []byte) []byte {
	t.Helper()
	out := bytes.ReplaceAll(data, []byte(`"guarantee":"at_least_once"`), []byte(`"guarantee":"at_least_once","ordering_key":"n"`))
	if bytes.Equal(out, data) {
		t.Fatalf("no delivery config to add an ordering key to in %s", data)
	}
	return out
}

// snapshotFiles lists the snapshot files of a data dir.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReliableSurvivesBestEffortOverflow pins that the at-least-once tier
// does not ride the best-effort display: with a sidebar of one item, a
// 512-event batch evicts from it 511 times, and the reliable consumer must
// still see every event once, in order, first attempt.
func TestReliableSurvivesBestEffortOverflow(t *testing.T) {
	ctx := context.Background()
	web := testWeb(24)
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithSidebar(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	feed := feedURLs(web)[0]
	const user, total = "alice", 512
	if _, err := dep.Subscribe(ctx, user, feed, reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
		t.Fatal(err)
	}
	evs := make([]reef.Event, total)
	for i := range evs {
		evs[i] = reef.Event{Attrs: feedItemAttrs(feed, i+1)}
	}
	if _, err := dep.PublishBatch(ctx, evs); err != nil {
		t.Fatal(err)
	}
	next := int64(1)
	for next <= total {
		got, err := dep.FetchEvents(ctx, user, feed, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("reliable queue ran dry at seq %d of %d: events were lost with the sidebar's evictions", next, total)
		}
		for _, ev := range got {
			if ev.Seq != next || ev.Attempts != 1 || ev.Event.Attrs["n"] != strconv.FormatInt(next, 10) {
				t.Fatalf("got seq %d attempts %d n=%s, want seq %d on its first attempt",
					ev.Seq, ev.Attempts, ev.Event.Attrs["n"], next)
			}
			next++
		}
		if err := dep.Ack(ctx, user, feed, next-1, false); err != nil {
			t.Fatal(err)
		}
	}
	if dls, err := dep.DeadLetters(ctx, user, ""); err != nil || len(dls) != 0 {
		t.Fatalf("DeadLetters = (%+v, %v), want none", dls, err)
	}
}

// TestBestEffortUpgradeStartsRetaining pins the upgrade path: a
// best-effort subscription re-subscribed at-least-once is a duplicate to
// the frontend, and must retain from the next publish all the same — on
// the node that took the calls, after that node crashed and replayed its
// WAL, and on a replica that applied the shipped records.
func TestBestEffortUpgradeStartsRetaining(t *testing.T) {
	for _, where := range []string{"live", "recovered", "replica"} {
		t.Run(where, func(t *testing.T) {
			ctx := context.Background()
			web := testWeb(25)
			feed := feedURLs(web)[0]
			const user = "alice"
			open := func(dir string) *reef.Centralized {
				dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithDataDir(dir),
					reef.WithSyncPolicy(reef.SyncAlways), reef.WithSnapshotEvery(-1))
				if err != nil {
					t.Fatal(err)
				}
				return dep
			}
			dir := t.TempDir()
			dep := open(dir)
			defer func() { _ = dep.Close() }()
			var shipped []durable.Record
			dep.SetReplicationTap(func(r durable.Record) { shipped = append(shipped, r) })

			if _, err := dep.Subscribe(ctx, user, feed); err != nil {
				t.Fatal(err)
			}
			if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feed, 0)}); err != nil {
				t.Fatal(err)
			}
			var cfgErr *reef.ConfigError
			if _, err := dep.FetchEvents(ctx, user, feed, 0); !errors.As(err, &cfgErr) {
				t.Fatalf("FetchEvents on a best-effort subscription = %v, want a config error", err)
			}
			sub, err := dep.Subscribe(ctx, user, feed, reef.WithGuarantee(reef.AtLeastOnce))
			if err != nil || sub.Guarantee != "at_least_once" {
				t.Fatalf("upgrade = (%+v, %v), want at_least_once", sub, err)
			}

			switch where {
			case "recovered":
				if err := durabletest.Crash(dep); err != nil {
					t.Fatal(err)
				}
				dep = open(dir)
				defer func() { _ = dep.Close() }()
			case "replica":
				dep = open(t.TempDir())
				defer func() { _ = dep.Close() }()
				if err := dep.ApplyReplicated(shipped); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feed, 1)}); err != nil {
				t.Fatal(err)
			}
			got, err := dep.FetchEvents(ctx, user, feed, 0)
			if err != nil || len(got) != 1 || got[0].Seq != 1 || got[0].Attempts != 1 || got[0].Event.Attrs["n"] != "1" {
				t.Fatalf("FetchEvents after the upgrade = (%+v, %v), want exactly the event published after it", got, err)
			}
		})
	}
}
