package reef_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/replication"
	"reef/reefhttp"
)

// TestReplicationLinkCutSyncs pins the receiver's sync rule over a real
// link into a SyncNever replica: a batch that carries resync cut
// records is fsynced once before its ack (the WAL's sync count has
// risen by one when the sender reads the ack), and an ordinary batch is
// handed to the OS without an fsync.
func TestReplicationLinkCutSyncs(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewCentralized(
		reef.WithFetcher(testWeb(96)),
		reef.WithDataDir(filepath.Join(t.TempDir(), "r")),
		reef.WithSyncPolicy(reef.SyncNever),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	mgr, err := replication.New(replication.Options{
		Self: "r", Nodes: []replication.Node{{ID: "p"}, {ID: "r"}}, Applier: dep,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv := httptest.NewServer(reefhttp.NewHandler(dep, nil, reefhttp.WithReplication(mgr)))
	t.Cleanup(srv.Close)
	l, err := replication.DialLink(http.DefaultTransport, replication.Node{BaseURL: srv.URL}, "p", 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	syncs := func() int64 {
		t.Helper()
		info, err := dep.StorageInfo(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return info.Syncs
	}
	ship := func(prev, last int64, cut bool, rec durable.Record) {
		t.Helper()
		frames := rec.AppendEncoded(nil)
		ack, err := l.Ship(durable.ReplBatch{Prev: prev, Last: last, Count: 1, Cut: cut, Bytes: len(frames)}, frames)
		if err != nil || ack.Kind != durable.AckOK || ack.Acked != last {
			t.Fatalf("batch %d→%d = (%+v, %v), want acked %d", prev, last, ack, err, last)
		}
	}
	before := syncs()
	ship(0, 1, false, durable.FlagRecord("ads.test", 1))
	if n := syncs() - before; n != 0 {
		t.Fatalf("an ordinary batch fsynced the replica's WAL %d times before its ack, want 0", n)
	}
	ship(1, 9, true, durable.PendingSeqRecord(9))
	if n := syncs() - before; n != 1 {
		t.Fatalf("a cut batch fsynced the replica's WAL %d times before its ack, want 1", n)
	}
	ship(9, 10, false, durable.FlagRecord("spam.test", 2))
	if n := syncs() - before; n != 1 {
		t.Fatalf("an ordinary batch after the cut fsynced the replica's WAL %d times in all, want the cut's 1", n)
	}
}
