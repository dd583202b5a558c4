package reef_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
)

// TestReplicationApplyRoundTrip is the reef-layer half of replication:
// every record tapped from a primary's WAL, applied on a second
// deployment through ApplyReplicated, reproduces the golden state
// byte-exactly — including pending-recommendation IDs and durable
// counters — even when the replica runs a different shard count (each
// record is journaled as received and routed by user in memory).
func TestReplicationApplyRoundTrip(t *testing.T) {
	ctx := context.Background()
	web := testWeb(71)

	var mu sync.Mutex
	var stream []durable.Record
	primary, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
		reef.WithShards(2),
		reef.WithSnapshotEvery(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.SetReplicationTap(func(r durable.Record) {
		mu.Lock()
		stream = append(stream, r)
		mu.Unlock()
	})

	replica, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
		reef.WithShards(3),
		reef.WithSnapshotEvery(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	users := driveCentralized(t, ctx, primary, web)
	// Capture drains fresh recommendations into the pending ledger —
	// journaled, so the drain itself lands in the stream before we ship.
	want, err := durabletest.Capture(ctx, primary, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	shipped := append([]durable.Record(nil), stream...)
	mu.Unlock()
	if len(shipped) == 0 {
		t.Fatal("tap saw no records from a full drive")
	}
	if err := replica.ApplyReplicated(shipped); err != nil {
		t.Fatal(err)
	}

	got, err := durabletest.Capture(ctx, replica, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := durabletest.Diff(want, got)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("replicated state differs from primary:\n%s", diff)
	}
}

// TestReplicationPositionsRecover pins where a replica's positions live:
// in its own journal. Positions applied through ApplyReplicated come
// back through ReplicationPositions after a clean reopen, after a
// snapshot took them into its position table, and reopened at 3 shards
// and then at 1.
func TestReplicationPositionsRecover(t *testing.T) {
	web := testWeb(73)
	open := func(t *testing.T, dir string, shards int) *reef.Centralized {
		t.Helper()
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithShards(shards),
			reef.WithSnapshotEvery(-1),
			reef.WithPollInterval(time.Hour),
		)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	want := []durable.ReplPosition{{Source: "a", Epoch: 7, Applied: 12}, {Source: "b", Epoch: 9, Applied: 3}}
	apply := func(t *testing.T, dep *reef.Centralized) {
		t.Helper()
		// Two batches: the later position of a source supersedes the
		// earlier one in log order.
		for _, batch := range [][]durable.ReplPosition{{{Source: "a", Epoch: 7, Applied: 5}}, want} {
			recs := []durable.Record{durable.FlagRecord("ads.test", 1)}
			for _, p := range batch {
				recs = append(recs, durable.ReplPositionRecord(p))
			}
			if err := dep.ApplyReplicated(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, dep *reef.Centralized, when string) {
		t.Helper()
		if got := dep.ReplicationPositions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("positions %s = %+v, want %+v", when, got, want)
		}
	}
	closeDep := func(t *testing.T, dep *reef.Centralized) {
		t.Helper()
		if err := dep.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			dep := open(t, dir, shards)
			apply(t, dep)
			check(t, dep, "as applied")
			closeDep(t, dep)
			dep = open(t, dir, shards)
			check(t, dep, "after reopen")

			if _, err := dep.Snapshot(context.Background()); err != nil {
				t.Fatal(err)
			}
			closeDep(t, dep)
			dep = open(t, dir, shards)
			defer closeDep(t, dep)
			check(t, dep, "after snapshot and reopen")
		})
	}

	t.Run("migration", func(t *testing.T) {
		dir := t.TempDir()
		dep := open(t, dir, 1)
		apply(t, dep)
		closeDep(t, dep)
		dep = open(t, dir, 3)
		check(t, dep, "reopened at 3 shards")
		closeDep(t, dep)
		dep = open(t, dir, 1)
		defer closeDep(t, dep)
		check(t, dep, "reopened at 1 shard")
	})
}

// TestReplicationSnapshotCut pins the catch-up path for a replica too
// far behind to stream: a consistent cut captured on the primary, framed
// records as a snapshot file's body is, and absorbed through
// ApplyReplicatedCut reproduces the golden state, and the cut is
// immediately durable on the replica (it survives a crash).
func TestReplicationSnapshotCut(t *testing.T) {
	ctx := context.Background()
	web := testWeb(72)
	primary, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
		reef.WithShards(2),
		reef.WithSnapshotEvery(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	users := driveCentralized(t, ctx, primary, web)
	want, err := durabletest.Capture(ctx, primary, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	run, err := primary.CaptureReplicationState(func() {})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	open := func() *reef.Centralized {
		rep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(dir),
			reef.WithSyncPolicy(reef.SyncAlways),
			reef.WithSnapshotEvery(-1),
		)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	replica := open()
	if err := replica.ApplyReplicatedCut(run); err != nil {
		t.Fatal(err)
	}
	got, err := durabletest.Capture(ctx, replica, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
		t.Fatalf("cut state differs (%v):\n%s", err, diff)
	}

	// Crash and recover: the cut is in the replica's log, so it survives.
	if err := durabletest.Crash(replica); err != nil {
		t.Fatal(err)
	}
	replica = open()
	defer replica.Close()
	got, err = durabletest.Capture(ctx, replica, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
		t.Fatalf("cut state lost across replica crash (%v):\n%s", err, diff)
	}
}
