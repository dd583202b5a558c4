package reef_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef"
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
// -state acceptance at shards=3: every shard journals to its own
// shard-<i>/ directory, recovery replays all three in parallel, and the
// recovered state — subscriptions, pending ledger with stable IDs, and
// durable counters — must be byte-identical. A mid-history compaction
// makes recovery cross each shard's snapshot/WAL boundary.
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

	// The sharded layout is on disk: per-shard directories plus the meta
	// file, no root journal files.
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d", i))); err != nil {
			t.Errorf("shard-%d directory missing: %v", i, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "shards.json")); err != nil {
		t.Errorf("shards.json missing: %v", err)
	}

	dep2 := open()
	defer func() { _ = dep2.Close() }()
	info, err := dep2.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "file" || info.ShardCount != 3 || len(info.Shards) != 3 {
		t.Errorf("StorageInfo after recovery = %+v, want file backend with 3 shard entries", info)
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

// TestShardMigrationFromLegacyLayout checks that a data directory
// written by the single-journal layout opens cleanly under the sharded
// engine: the legacy journal replays routed to the shards users now
// hash to, each shard snapshots its slice, and the legacy files retire.
// The test then crashes the sharded deployment (recovery now runs from
// the migrated per-shard journals) and finally migrates back down to
// one shard.
func TestShardMigrationFromLegacyLayout(t *testing.T) {
	ctx := context.Background()
	web := testWeb(11)
	dir := t.TempDir()
	open := func(shards int) (*reef.Centralized, error) {
		return reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithShards(shards),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1),
		)
	}
	// distinct_servers deliberately is not compared across shard-count
	// changes: a host clicked by users now on different shards counts
	// once per shard that stores it.
	statKeys := []string{"clicks_stored", "pending_recommendations"}

	dep, err := open(1)
	if err != nil {
		t.Fatal(err)
	}
	users := driveCentralized(t, ctx, dep, web)
	legacy, err := durabletest.Capture(ctx, dep, users, statKeys)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if !hasRootJournal(t, dir) {
		t.Fatal("single-shard deployment did not write the legacy root layout")
	}

	// Reopen sharded: the legacy directory migrates in place.
	dep3, err := open(3)
	if err != nil {
		t.Fatalf("opening legacy dir with WithShards(3): %v", err)
	}
	migrated, err := durabletest.Capture(ctx, dep3, users, statKeys)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := durabletest.Diff(legacy, migrated)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("migrated state differs from legacy:\n%s", diff)
	}
	if hasRootJournal(t, dir) {
		t.Error("legacy root journal files survived the migration")
	}

	// A wrong shard count against a sharded directory is refused.
	if _, err := open(2); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("open with mismatched shard count: error = %v, want ErrInvalidArgument", err)
	}

	// Opening WITHOUT WithShards adopts the directory's count instead of
	// migrating it down to one shard (dep3 still holds the dir; adoption
	// is a read-only decision, so the probe deployment opens the same
	// layout and is closed before the crash below).
	if err := dep3.Close(); err != nil {
		t.Fatal(err)
	}
	adopt, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(dir),
		reef.WithSyncPolicy(reef.SyncAlways),
		reef.WithSnapshotEvery(-1),
	)
	if err != nil {
		t.Fatalf("open without WithShards: %v", err)
	}
	if got := adopt.ShardCount(); got != 3 {
		t.Errorf("ShardCount without WithShards = %d, want the directory's 3", got)
	}
	if err := adopt.Close(); err != nil {
		t.Fatal(err)
	}
	dep3, err = open(3)
	if err != nil {
		t.Fatal(err)
	}

	// Crash-recover at 3 to prove the migrated journals are live.
	feeds := feedURLs(web)
	if _, err := dep3.Subscribe(ctx, "u2", feeds[len(feeds)-1]); err != nil {
		t.Fatal(err)
	}
	before, err := durabletest.Capture(ctx, dep3, users, statKeys)
	if err != nil {
		t.Fatal(err)
	}
	if err := durabletest.Crash(dep3); err != nil {
		t.Fatal(err)
	}
	dep3b, err := open(3)
	if err != nil {
		t.Fatal(err)
	}
	after, err := durabletest.Capture(ctx, dep3b, users, statKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(before, after); err != nil || diff != "" {
		t.Fatalf("crash recovery after migration differs (%v):\n%s", err, diff)
	}
	if err := dep3b.Close(); err != nil {
		t.Fatal(err)
	}

	// And back down: the sharded directory migrates to the legacy layout.
	dep1, err := open(1)
	if err != nil {
		t.Fatalf("migrating back to one shard: %v", err)
	}
	defer func() { _ = dep1.Close() }()
	down, err := durabletest.Capture(ctx, dep1, users, statKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(before, down); err != nil || diff != "" {
		t.Fatalf("downgrade migration differs (%v):\n%s", err, diff)
	}
	if !hasRootJournal(t, dir) {
		t.Error("downgrade did not restore the root journal layout")
	}
	if _, err := os.Stat(filepath.Join(dir, "shards.json")); !os.IsNotExist(err) {
		t.Errorf("shards.json survived the downgrade: %v", err)
	}
}

// hasRootJournal reports whether dir holds root-level WAL segments (the
// legacy single-shard layout).
func hasRootJournal(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), "wal-") {
			return true
		}
	}
	return false
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
func TestSnapshotCompactionRace(t *testing.T) {
	ctx := context.Background()
	web := testWeb(14)
	dir := t.TempDir()
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(dir),
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

	dep2, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithDataDir(dir))
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
