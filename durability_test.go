package reef_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
	"reef/internal/websim"
)

// feedURLs returns sorted absolute URLs of every feed in the synthetic
// web, so tests can subscribe directly without the recommendation flow.
func feedURLs(web *websim.Web) []string {
	var out []string
	for _, s := range web.Servers(websim.KindContent) {
		for path := range s.Feeds {
			out = append(out, s.URL(path))
		}
	}
	sort.Strings(out)
	return out
}

// driveCentralized pushes a deployment through the full recommendation
// lifecycle: browse feed-hosting pages, run the pipeline, poll pending
// recommendations, accept one and reject one, and place plus remove
// direct subscriptions. It returns the users it touched.
func driveCentralized(t *testing.T, ctx context.Context, dep *reef.Centralized, web *websim.Web) []string {
	t.Helper()
	users := []string{"u1", "u2"}
	at := dt0
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for path := range s.Pages {
			for _, u := range users {
				at = at.Add(time.Second)
				if _, err := dep.IngestClicks(ctx, []reef.Click{{User: u, URL: s.URL(path), At: at}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dep.RunPipeline(at)

	recs, err := dep.Recommendations(ctx, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("pipeline produced no recommendations for u1")
	}
	if err := dep.AcceptRecommendation(ctx, "u1", recs[0].ID); err != nil {
		t.Fatal(err)
	}
	if len(recs) > 1 {
		if err := dep.RejectRecommendation(ctx, "u1", recs[1].ID); err != nil {
			t.Fatal(err)
		}
	}

	feeds := feedURLs(web)
	if len(feeds) < 2 {
		t.Fatal("synthetic web has too few feeds")
	}
	if _, err := dep.Subscribe(ctx, "u2", feeds[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Subscribe(ctx, "u2", feeds[1]); err != nil {
		t.Fatal(err)
	}
	if err := dep.Unsubscribe(ctx, "u2", feeds[1]); err != nil {
		t.Fatal(err)
	}
	return users
}

// TestCentralizedCrashRecovery is the end-to-end acceptance test: drive a
// file-backed deployment through ingest, pipeline, accept/reject and
// direct subscriptions — with a compaction in the middle so recovery
// crosses a snapshot/WAL boundary — kill it without a clean close, reopen
// the same data directory, and require the recovered subscription,
// pending-recommendation and stats state to be byte-identical.
func TestCentralizedCrashRecovery(t *testing.T) {
	ctx := context.Background()
	web := testWeb(11)
	dir := t.TempDir()
	open := func() *reef.Centralized {
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1), // only the explicit mid-test compaction
		)
		if err != nil {
			t.Fatalf("NewCentralized: %v", err)
		}
		return dep
	}

	dep := open()
	users := driveCentralized(t, ctx, dep, web)

	// Compact mid-history: later mutations land in the post-snapshot WAL,
	// so recovery exercises baseline + tail, not just one of them.
	if _, err := dep.Snapshot(ctx); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	feeds := feedURLs(web)
	if _, err := dep.Subscribe(ctx, "u1", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
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
	info, err := dep2.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "file" || info.Generation == 0 {
		t.Errorf("StorageInfo after recovery = %+v, want file backend past generation 0", info)
	}
	after, err := durabletest.Capture(ctx, dep2, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := durabletest.Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("recovered state differs:\n%s", diff)
	}

	// The recovered ledger must honor pre-crash IDs: accept one through
	// the reopened deployment.
	for _, u := range users {
		for _, rec := range after.Pending[u] {
			if err := dep2.AcceptRecommendation(ctx, u, rec.ID); err != nil {
				t.Fatalf("accepting recovered recommendation %s/%s: %v", u, rec.ID, err)
			}
			return
		}
	}
}

// TestCentralizedCrashRecoveryShards3 runs the crash-recovery golden
// -state acceptance at shards=3: all three shards record through the
// one journal at the data-dir root, recovery replays it routed by user,
// and the recovered state — subscriptions, pending ledger with stable
// IDs, and durable counters — must be byte-identical. A mid-history
// compaction makes recovery cross the snapshot/WAL boundary.
func TestCentralizedCrashRecoveryShards3(t *testing.T) {
	ctx := context.Background()
	web := testWeb(11)
	dir := t.TempDir()
	open := func() *reef.Centralized {
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithShards(3),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1),
		)
		if err != nil {
			t.Fatalf("NewCentralized: %v", err)
		}
		return dep
	}

	dep := open()
	users := driveCentralized(t, ctx, dep, web)

	if _, err := dep.Snapshot(ctx); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	feeds := feedURLs(web)
	if _, err := dep.Subscribe(ctx, "u1", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
	}

	before, err := durabletest.Capture(ctx, dep, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if err := durabletest.Crash(dep); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	// Three shards, one journal: the root layout, as at one shard.
	checkRootLayout(t, dir)

	dep2 := open()
	defer func() { _ = dep2.Close() }()
	info, err := dep2.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "file" || info.ShardCount != 3 || len(info.Shards) != 0 {
		t.Errorf("StorageInfo after recovery = %+v, want file backend, 3 shards and no per-shard entries", info)
	}
	after, err := durabletest.Capture(ctx, dep2, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := durabletest.Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("recovered sharded state differs:\n%s", diff)
	}
	for _, u := range users {
		for _, rec := range after.Pending[u] {
			if err := dep2.AcceptRecommendation(ctx, u, rec.ID); err != nil {
				t.Fatalf("accepting recovered recommendation %s/%s: %v", u, rec.ID, err)
			}
			return
		}
	}
}

// TestReopenAtAnyShardCount pins that the shard count is a runtime
// choice: one data directory reopens at 1, 3, 2 and then 1 shard —
// with a mutation and a crash at 3 — and the golden state is the same
// at every step. Opening without WithShards runs one shard. The
// directory keeps the root layout throughout.
func TestReopenAtAnyShardCount(t *testing.T) {
	ctx := context.Background()
	web := testWeb(11)
	dir := t.TempDir()
	open := func(opts ...reef.Option) *reef.Centralized {
		t.Helper()
		dep, err := reef.NewCentralized(append([]reef.Option{
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	var users []string
	capture := func(dep *reef.Centralized) *durabletest.GoldenState {
		t.Helper()
		g, err := durabletest.Capture(ctx, dep, users, durabletest.DurableStatKeys)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	same := func(step string, want, got *durabletest.GoldenState) {
		t.Helper()
		if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
			t.Fatalf("%s: state differs (%v):\n%s", step, err, diff)
		}
	}
	closeDep := func(dep *reef.Centralized) {
		t.Helper()
		if err := dep.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dep := open(reef.WithShards(1))
	users = driveCentralized(t, ctx, dep, web)
	// Recovery crosses a snapshot baseline and a WAL tail.
	if _, err := dep.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	feeds := feedURLs(web)
	if _, err := dep.Subscribe(ctx, "u2", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
	}
	want := capture(dep)
	closeDep(dep)

	dep = open(reef.WithShards(3))
	same("1 -> 3", want, capture(dep))
	if err := dep.Unsubscribe(ctx, "u2", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
	}
	want = capture(dep)
	if err := durabletest.Crash(dep); err != nil {
		t.Fatal(err)
	}
	dep = open(reef.WithShards(3))
	same("crash at 3", want, capture(dep))
	closeDep(dep)

	dep = open(reef.WithShards(2))
	same("3 -> 2", want, capture(dep))
	closeDep(dep)

	dep = open()
	defer closeDep(dep)
	if got := dep.ShardCount(); got != 1 {
		t.Errorf("ShardCount without WithShards = %d, want 1", got)
	}
	same("2 -> 1", want, capture(dep))
	checkRootLayout(t, dir)
}

// checkRootLayout asserts dir holds the one-journal layout: root WAL
// segments, and neither the per-shard layout's shards.json nor any
// shard-<i>/ directory.
func checkRootLayout(t *testing.T, dir string) {
	t.Helper()
	if m, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(m) == 0 {
		t.Errorf("no root WAL segment in %s", dir)
	}
	if _, err := os.Stat(filepath.Join(dir, "shards.json")); !os.IsNotExist(err) {
		t.Errorf("shards.json in %s: %v", dir, err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(m) != 0 {
		t.Errorf("per-shard directories in %s: %v", dir, m)
	}
}

// TestCentralizedCrashLosesUnsyncedTail pins the loss semantics of
// SyncNever: state past the last durable point (here, a snapshot)
// vanishes on crash, and recovery stops cleanly at the baseline instead
// of failing.
func TestCentralizedCrashLosesUnsyncedTail(t *testing.T) {
	ctx := context.Background()
	web := testWeb(12)
	dir := t.TempDir()
	open := func() *reef.Centralized {
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithSyncPolicy(reef.SyncNever),
			reef.WithSnapshotEvery(-1),
		)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	dep := open()
	if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "u", URL: "http://a.test/1", At: dt0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Snapshot(ctx); err != nil { // durable point: 1 click
		t.Fatal(err)
	}
	if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "u", URL: "http://a.test/2", At: dt0}}); err != nil {
		t.Fatal(err)
	}
	if err := durabletest.Crash(dep); err != nil {
		t.Fatal(err)
	}

	dep2 := open()
	defer func() { _ = dep2.Close() }()
	stats, err := dep2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["clicks_stored"]; got != 1 {
		t.Fatalf("clicks_stored after crash = %v, want the snapshotted 1", got)
	}
}

// TestSnapshotCompactionRace hammers IngestClicks and PublishEvent while
// snapshot compactions run, then recovers and counts: every ingested
// click must be on exactly one side of every snapshot/WAL handoff. Run
// under -race this also proves the capture path holds no stale views.
// At three shards the workers' users spread over shards that all record
// into, and are all captured from, the one journal.
func TestSnapshotCompactionRace(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testSnapshotCompactionRace(t, shards)
		})
	}
}

func testSnapshotCompactionRace(t *testing.T, shards int) {
	ctx := context.Background()
	web := testWeb(14)
	dir := t.TempDir()
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(dir),
		reef.WithShards(shards),
		reef.WithSyncPolicy(reef.SyncNever), // graceful close flushes; the race is in the handoff
		reef.WithSnapshotEvery(-1),
	)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 50
	var ingested atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < perWorker; i++ {
				clicks := []reef.Click{{
					User: user,
					URL:  fmt.Sprintf("http://w%d.test/p%d", w, i),
					At:   dt0.Add(time.Duration(i) * time.Second),
				}}
				if _, err := dep.IngestClicks(ctx, clicks); err != nil {
					t.Errorf("IngestClicks: %v", err)
					return
				}
				ingested.Add(1)
				if _, err := dep.PublishEvent(ctx, reef.Event{Attrs: map[string]string{"topic": "race"}}); err != nil {
					t.Errorf("PublishEvent: %v", err)
					return
				}
			}
		}(w)
	}
	snapErrs := make(chan error, 1)
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 15; i++ {
			if _, err := dep.Snapshot(ctx); err != nil {
				snapErrs <- err
				return
			}
		}
	}()
	wg.Wait()
	<-snapDone
	select {
	case err := <-snapErrs:
		t.Fatalf("Snapshot during load: %v", err)
	default:
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	dep2, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithDataDir(dir), reef.WithShards(shards))
	if err != nil {
		t.Fatalf("recovery after compaction race: %v", err)
	}
	defer func() { _ = dep2.Close() }()
	stats, err := dep2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(stats["clicks_stored"]); got != ingested.Load() {
		t.Fatalf("clicks_stored after recovery = %d, want %d: a record fell through the snapshot/WAL handoff",
			got, ingested.Load())
	}
}

// TestPersisterOnMemoryDeployment pins the no-data-dir behavior: the
// Persister surface answers (backend "memory"), snapshots are no-ops,
// and nothing touches disk.
func TestPersisterOnMemoryDeployment(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(15)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	info, err := dep.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "memory" {
		t.Errorf("Backend = %q, want memory", info.Backend)
	}
	if _, err := dep.Snapshot(ctx); err != nil {
		t.Errorf("Snapshot on memory deployment: %v", err)
	}
}

// TestClickRecordsReplayByPolicy pins the check replay makes on the
// click policy's own records: a Distributed node journals no clicks or
// flags, so a log carrying either, in a WAL record or in a snapshot, is
// corrupt and refuses to open, while a Centralized node replays the
// same click batch into its store.
func TestClickRecordsReplayByPolicy(t *testing.T) {
	batch := []reef.Click{
		{User: "alice", URL: "http://a.test/p/1.html", At: dt0},
		{User: "bob", URL: "http://b.test/p/2.html", At: dt0.Add(time.Second)},
		{User: "carol", URL: "http://c.test/p/3.html", At: dt0.Add(2 * time.Second)},
	}
	flags := map[string]int{"ads.test": 1}
	cases := []struct {
		name string
		snap *durable.State
		rec  *durable.Record
	}{
		{"wal-clicks", nil, ptr(durable.ClicksRecord(batch))},
		{"wal-flag", nil, ptr(durable.FlagRecord("ads.test", 1))},
		{"snapshot-clicks", &durable.State{Version: 1, Clicks: batch}, nil},
		{"snapshot-flags", &durable.State{Version: 1, Flags: flags}, nil},
	}
	web := testWeb(27)
	for _, shards := range []int{1, 3} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				write := func() string {
					dir := t.TempDir()
					b, err := durable.OpenFile(dir, durable.FileOptions{Sync: durable.SyncAlways})
					if err != nil {
						t.Fatal(err)
					}
					if tc.snap != nil {
						err = b.Snapshot(tc.snap)
					} else {
						err = b.Append(*tc.rec)
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					return dir
				}
				opts := func(dir string) []reef.Option {
					return []reef.Option{reef.WithFetcher(web), reef.WithDataDir(dir), reef.WithShards(shards)}
				}
				if dep, err := reef.NewDistributed(opts(write())...); err == nil {
					_ = dep.Close()
					t.Fatal("NewDistributed opened a log carrying clicks or flags")
				}
				if tc.name != "wal-clicks" {
					return
				}
				dep, err := reef.NewCentralized(opts(write())...)
				if err != nil {
					t.Fatalf("NewCentralized: %v", err)
				}
				defer func() { _ = dep.Close() }()
				stats, err := dep.Stats(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got := stats["clicks_stored"]; got != float64(len(batch)) {
					t.Errorf("clicks_stored = %v, want %d", got, len(batch))
				}
			})
		}
	}
}

func ptr[T any](v T) *T { return &v }
