package reef_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/internal/durable/durabletest"
	"reef/internal/replication"
	"reef/reefhttp"
)

// TestReplicaCrashKeepsAckedRecords pins the receiver's crash rule: a
// batch the replica acked is in its own log, position included, so a
// replica process that dies and restarts neither loses the acked
// records nor claims records its log never held. The replica runs
// SyncNever, so nothing but the flush before the ack moves its WAL out
// of the process; the sender must then carry on from the recovered
// position with no snapshot resync.
func TestReplicaCrashKeepsAckedRecords(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testReplicaCrashKeepsAckedRecords(t, shards)
		})
	}
}

func testReplicaCrashKeepsAckedRecords(t *testing.T, shards int) {
	ctx := context.Background()
	web := testWeb(81)
	feed := feedURLs(web)[0]
	replicaDir := t.TempDir()

	// The replica's REST surface sits behind a stable URL whose handler
	// the test swaps when the replica restarts.
	var handler atomic.Pointer[http.Handler]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()
	nodes := []replication.Node{{ID: "p", BaseURL: "http://unused.test"}, {ID: "r", BaseURL: srv.URL}}

	openReplica := func() (*reef.Centralized, *replication.Manager) {
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(filepath.Join(replicaDir, "data")),
			reef.WithShards(shards),
			reef.WithSyncPolicy(reef.SyncNever),
			reef.WithSnapshotEvery(-1),
			reef.WithPollInterval(time.Hour),
		)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := replication.New(replication.Options{
			Self:    "r",
			Nodes:   nodes,
			Applier: dep,
			Dir:     filepath.Join(replicaDir, "replication"),
		})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = reefhttp.NewHandler(dep, nil, reefhttp.WithReplication(mgr))
		handler.Store(&h)
		return dep, mgr
	}
	replica, rmgr := openReplica()

	primaryDir := t.TempDir()
	primary, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(filepath.Join(primaryDir, "data")),
		reef.WithSyncPolicy(reef.SyncNever),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = primary.Close() }()
	pmgr, err := replication.New(replication.Options{
		Self:          "p",
		Nodes:         nodes,
		Replicas:      1,
		Applier:       primary,
		Dir:           filepath.Join(primaryDir, "replication"),
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pmgr.Close()
	primary.SetReplicationTap(pmgr.Offer)

	var users []string
	subscribe := func(from, to int) {
		for i := from; i < to; i++ {
			u := fmt.Sprintf("u%02d", i)
			users = append(users, u)
			if _, err := primary.Subscribe(ctx, u, feed); err != nil {
				t.Fatal(err)
			}
		}
		waitDrained(t, pmgr)
	}

	subscribe(0, 40)
	rmgr.Close()
	if err := durabletest.Crash(replica); err != nil {
		t.Fatal(err)
	}
	replica, rmgr = openReplica()
	defer func() { _ = replica.Close() }()
	defer rmgr.Close()
	subscribe(40, 50)

	want, err := durabletest.Capture(ctx, primary, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := durabletest.Capture(ctx, replica, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
		t.Fatalf("replica state after its crash differs from the primary (%v):\n%s", err, diff)
	}
	if n := pmgr.Status().Peers[0].Resyncs; n != 0 {
		t.Fatalf("sender resynced %d times across the replica's crash, want 0", n)
	}
}

// waitDrained waits until the sender's only peer has acked everything
// offered so far.
func waitDrained(t *testing.T, m *replication.Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Status()
		if st.Peers[0].Pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender did not drain: %d pending after shipping %d (last error %q)",
				st.Peers[0].Pending, st.Peers[0].Shipped, st.Peers[0].LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
