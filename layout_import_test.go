package reef_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
	"reef/internal/simclock"
)

// The layout-shards3 fixture is a data directory written by a release
// that kept one journal per shard: shards.json pinning 3, and every
// shard-<i>/ holding a snapshot baseline plus a WAL tail. Its users
// spread over all three shards; between them they hold clicks and
// flags, pending recommendations, an accepted and a rejected one,
// best-effort subscriptions, a reliable one acked to seq 2, and a
// replication position. layout-shards3.golden.json is the golden state
// that release captured just before closing the directory.
const (
	fixtureDir    = "testdata/layout-shards3"
	fixtureGolden = "testdata/layout-shards3.golden.json"
)

var (
	fixtureUsers     = []string{"alice", "bob", "dave", "ivan", "trent"}
	fixturePositions = []durable.ReplPosition{{Source: "n2", Epoch: 3, Applied: 9}}
)

// copyFixture copies the fixture directory into a fresh temp dir, so the
// import can rewrite it.
func copyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixtureDir)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openFixture opens dir at the given shard count with the options the
// fixture was written under.
func openFixture(t *testing.T, dir string, shards int) *reef.Centralized {
	t.Helper()
	dep, err := reef.NewCentralized(
		reef.WithFetcher(testWeb(11)),
		reef.WithClock(simclock.NewVirtual(dt0)),
		reef.WithDataDir(dir),
		reef.WithShards(shards),
		reef.WithSyncPolicy(reef.SyncAlways),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatalf("opening at %d shards: %v", shards, err)
	}
	return dep
}

// checkFixtureState compares dep's golden state and replication
// positions with what the fixture's release recorded.
func checkFixtureState(t *testing.T, step string, dep *reef.Centralized) {
	t.Helper()
	data, err := os.ReadFile(fixtureGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want durabletest.GoldenState
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, err := durabletest.Capture(context.Background(), dep, fixtureUsers, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(&want, got); err != nil || diff != "" {
		t.Fatalf("%s: state differs from the fixture's golden (%v):\n%s", step, err, diff)
	}
	if got := dep.ReplicationPositions(); !reflect.DeepEqual(got, fixturePositions) {
		t.Fatalf("%s: positions = %+v, want %+v", step, got, fixturePositions)
	}
}

// TestImportShardLayout pins the one-time import of the per-shard
// layout: the 3-shard fixture opens at 2 — a count its release refused —
// with the golden state intact, lands in the root layout, and then
// survives a crash reopened at 3 and a reopen at 1.
func TestImportShardLayout(t *testing.T) {
	dir := copyFixture(t)
	dep := openFixture(t, dir, 2)
	checkFixtureState(t, "imported at 2", dep)
	checkRootLayout(t, dir)
	if err := durabletest.Crash(dep); err != nil {
		t.Fatal(err)
	}

	dep = openFixture(t, dir, 3)
	checkFixtureState(t, "crash-reopened at 3", dep)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	dep = openFixture(t, dir, 1)
	defer func() { _ = dep.Close() }()
	checkFixtureState(t, "reopened at 1", dep)
	checkRootLayout(t, dir)
}

// TestImportReruns pins the crash rule before shards.json goes: root
// journal files beside it are the partial output of an interrupted
// import, cleared before the root journal opens. The import then runs
// again from the old journals and nothing in the stray files leaks into
// the state. The stray set includes a snapshot that does not decode, so
// opening the root journal over it would fail outright.
func TestImportReruns(t *testing.T) {
	dir := copyFixture(t)
	stray, err := durable.OpenFile(dir, durable.FileOptions{Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	sub := durable.SubscriptionState{User: "trent", Kind: reef.KindSubscribeFeed, FeedURL: "http://stray.test/feed.xml", At: dt0}
	if err := stray.Append(durable.SubscribeRecord(sub)); err != nil {
		t.Fatal(err)
	}
	if err := stray.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.json"), []byte(`{"gen":`), 0o644); err != nil {
		t.Fatal(err)
	}

	dep := openFixture(t, dir, 2)
	defer func() { _ = dep.Close() }()
	checkFixtureState(t, "import re-run over stray root files", dep)
	checkRootLayout(t, dir)
}

// TestImportSweepsLeftoverShardDirs pins the crash rule after
// shards.json goes: shard-<i>/ directories without it are garbage of a
// finished import, swept at the next open without touching the state.
func TestImportSweepsLeftoverShardDirs(t *testing.T) {
	dir := copyFixture(t)
	dep := openFixture(t, dir, 1)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shard := range []string{"shard-0", "shard-1", "shard-2"} {
		if err := os.CopyFS(filepath.Join(dir, shard), os.DirFS(filepath.Join(fixtureDir, shard))); err != nil {
			t.Fatal(err)
		}
	}

	dep = openFixture(t, dir, 3)
	defer func() { _ = dep.Close() }()
	checkFixtureState(t, "reopened over leftover shard dirs", dep)
	checkRootLayout(t, dir)
}
