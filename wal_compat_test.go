package reef_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"reef"
	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
	"reef/internal/waif"
)

// The wal-v1 fixture is a data directory holding one WAL of version-1
// (JSON payload) records and no snapshot. The release before binary
// payloads wrote it from walCompatOps, appending each record through
// durable.OpenFile: one record of every WAL op.
const walV1Dir = "testdata/wal-v1"

var walCompatUsers = []string{"alice", "bob", "carol", "dave"}

// walCompatOps is the fixture's operation stream: clicks at UTC, +02:00
// and +05:45, one with a zero time, one from an event and one without
// a referrer; a flag; a best-effort, a reliable and a filter subscribe
// and an unsubscribe; a pending add accepted, one rejected and one left
// pending with weighted terms; a cursor ack and a replication position.
func walCompatOps() []durable.Record {
	at := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	plus2 := time.FixedZone("", 2*3600)
	plus545 := time.FixedZone("", 5*3600+45*60)
	news, blog, misc := "http://news.test/feed.xml", "http://blog.test/feed.xml", "http://misc.test/feed.xml"
	feedSub := func(user, feed string, d *durable.DeliveryState) durable.SubscriptionState {
		return durable.SubscriptionState{
			User: user, Kind: "subscribe-feed", FeedURL: feed,
			Filter: waif.ItemFilter(feed).String(), Reason: "accepted", At: at, Delivery: d,
		}
	}
	feedRec := func(user, feed string) durable.RecommendationState {
		return durable.RecommendationState{
			Kind: "subscribe-feed", User: user, FeedURL: feed,
			Filter: waif.ItemFilter(feed).String(), Reason: "attended pages", At: at,
		}
	}
	return []durable.Record{
		durable.ClicksRecord([]attention.Click{
			{User: "alice", URL: "http://news.test/a.html", At: at, Referrer: "http://news.test/"},
			{User: "bob", URL: "http://blog.test/b.html", At: at.Add(time.Minute).In(plus2)},
			{User: "carol", URL: "http://news.test/c.html", At: at.Add(2*time.Minute + 123456789).In(plus545), Referrer: "http://blog.test/b.html"},
			{User: "dave", URL: "http://misc.test/d.html"},
			{User: "alice", URL: "http://news.test/e.html", At: at.Add(3 * time.Minute), FromEvent: true},
		}),
		durable.FlagRecord("ads.test", 2),
		durable.SubscribeRecord(feedSub("alice", news, nil)),
		durable.SubscribeRecord(feedSub("bob", blog, &durable.DeliveryState{Guarantee: "at_least_once", AckTimeoutMS: 5000, MaxAttempts: 3})),
		durable.SubscribeRecord(durable.SubscriptionState{
			User: "carol", Kind: "content-query", Filter: `keywords contains "reef"`, Reason: "top-2 profile terms", At: at.In(plus545),
		}),
		durable.SubscribeRecord(feedSub("alice", misc, nil)),
		durable.UnsubscribeRecord(feedSub("alice", misc, nil)),
		durable.PendingAddRecord(durable.PendingAddPayload{User: "dave", ID: "r1", Seq: 1, Rec: feedRec("dave", blog)}),
		durable.PendingTakeRecord(durable.PendingTakePayload{User: "dave", ID: "r1", Accepted: true, At: at.Add(5 * time.Minute)}),
		durable.PendingAddRecord(durable.PendingAddPayload{User: "carol", ID: "r2", Seq: 2, Rec: feedRec("carol", misc)}),
		durable.PendingTakeRecord(durable.PendingTakePayload{User: "carol", ID: "r2", At: at.Add(6 * time.Minute).In(plus2)}),
		durable.PendingAddRecord(durable.PendingAddPayload{User: "carol", ID: "r3", Seq: 3, Rec: durable.RecommendationState{
			Kind: "content-query", User: "carol", Filter: `keywords contains "feed"`, Reason: "top-2 profile terms", At: at,
			Terms: []durable.TermState{{Term: "feed", Score: 4.25}, {Term: "reef", Score: 1.0 / 3}},
		}}),
		durable.CursorAckRecord(durable.CursorAckPayload{User: "bob", ID: blog, Seq: 3, At: at.Add(7 * time.Minute)}),
		durable.ReplPositionRecord(durable.ReplPosition{Source: "n2", Epoch: 7, Applied: 11}),
	}
}

// walVersions lists the record versions of dir's generation-0 WAL.
func walVersions(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := durable.Replay(data[len("REEFWAL\x01"):])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(recs))
	for i, r := range recs {
		out[i] = r.Version
	}
	return out
}

// captureCompat reads dep's golden state over the fixture's users.
func captureCompat(t *testing.T, dep reef.Deployment) *durabletest.GoldenState {
	t.Helper()
	g, err := durabletest.Capture(context.Background(), dep, walCompatUsers, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// snapshotBytes snapshots dep and returns the snapshot file it wrote.
func snapshotBytes(t *testing.T, dep *reef.Centralized, dir string) []byte {
	t.Helper()
	if _, err := dep.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots in %s = %v, want one", dir, snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWALVersion1Fixture pins that version-1 records still decode into
// exactly the state their version-2 encoding gives: at 1, 2 and 3
// shards, a node replaying the fixture and a node replaying the same
// operations journaled by this binary capture the same golden state,
// hold the same replication positions and write byte-identical
// snapshots, click times and zones included.
func TestWALVersion1Fixture(t *testing.T) {
	ops := walCompatOps()
	v1Versions := slices.Repeat([]byte{durable.VersionJSON}, len(ops))
	v2Versions := slices.Repeat([]byte{durable.VersionBinary}, len(ops))
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			v1 := t.TempDir()
			if err := os.CopyFS(v1, os.DirFS(walV1Dir)); err != nil {
				t.Fatal(err)
			}
			if got := walVersions(t, v1); !slices.Equal(got, v1Versions) {
				t.Fatalf("fixture record versions = %v, want %v", got, v1Versions)
			}
			v2 := t.TempDir()
			b, err := durable.OpenFile(v2, durable.FileOptions{Sync: durable.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range ops {
				if err := b.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if got := walVersions(t, v2); !slices.Equal(got, v2Versions) {
				t.Fatalf("journaled record versions = %v, want %v", got, v2Versions)
			}

			old, cur := openFixture(t, v1, shards), openFixture(t, v2, shards)
			defer func() { _ = old.Close() }()
			defer func() { _ = cur.Close() }()
			want, got := captureCompat(t, old), captureCompat(t, cur)
			if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
				t.Fatalf("version-2 replay differs from version-1 (%v):\n%s", err, diff)
			}
			if len(got.Subscriptions["bob"]) != 1 || len(got.Subscriptions["dave"]) != 1 || len(got.Pending["carol"]) != 1 {
				t.Fatalf("replayed state lost operations: %+v", got)
			}
			wantPos := []durable.ReplPosition{{Source: "n2", Epoch: 7, Applied: 11}}
			for _, dep := range []*reef.Centralized{old, cur} {
				if pos := dep.ReplicationPositions(); !reflect.DeepEqual(pos, wantPos) {
					t.Fatalf("positions = %+v, want %+v", pos, wantPos)
				}
			}
			if a, b := snapshotBytes(t, old, v1), snapshotBytes(t, cur, v2); string(a) != string(b) {
				t.Fatalf("snapshots differ:\nversion 1: %s\nversion 2: %s", a, b)
			}
		})
	}
}

// TestWALMixedVersionsReopen pins a log that holds version-1 records
// followed by version-2 ones: the fixture opened by this binary keeps
// its records as written and appends new ones in version 2, and the
// whole log replays to the state it had when closed.
func TestWALMixedVersionsReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(walV1Dir)); err != nil {
		t.Fatal(err)
	}
	dep := openFixture(t, dir, 2)
	if _, err := dep.Subscribe(ctx, "carol", "http://news.test/feed.xml", reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
		t.Fatal(err)
	}
	if err := dep.Unsubscribe(ctx, "alice", "http://news.test/feed.xml"); err != nil {
		t.Fatal(err)
	}
	if err := dep.ApplyReplicated(walCompatOps()[:1]); err != nil {
		t.Fatal(err)
	}
	want := captureCompat(t, dep)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	versions := walVersions(t, dir)
	n := len(walCompatOps())
	if len(versions) <= n || slices.ContainsFunc(versions[:n], func(v byte) bool { return v != durable.VersionJSON }) ||
		slices.ContainsFunc(versions[n:], func(v byte) bool { return v != durable.VersionBinary }) {
		t.Fatalf("record versions = %v, want %d of version 1 then version 2", versions, n)
	}

	dep = openFixture(t, dir, 3)
	defer func() { _ = dep.Close() }()
	if diff, err := durabletest.Diff(want, captureCompat(t, dep)); err != nil || diff != "" {
		t.Fatalf("mixed-version log replays to a different state (%v):\n%s", err, diff)
	}
}

// TestRefuseNewerWAL pins that a node refuses a log holding an intact
// record it cannot read — a version or an op a newer binary writes —
// instead of truncating the log there, which would delete that record
// and every one after it. The file is left byte-identical. A version-2
// frame of the wire-only clicks op is refused the same way, so a WAL
// can never hold it.
func TestRefuseNewerWAL(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version byte // frame byte 8; 0 keeps the record's own
		op      byte // frame byte 9; 0 keeps the record's own
		want    error
	}{
		{"version 9", 9, 0, durable.ErrVersion},
		{"op 20", 0, 20, durable.ErrUnknownOp},
		{"stream clicks op at version 2", durable.VersionBinary, byte(durable.OpStreamClicks), durable.ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := []byte("REEFWAL\x01")
			for i, rec := range walCompatOps()[:4] {
				frame := rec.AppendEncoded(nil)
				if i == 2 {
					if tc.version != 0 {
						frame[8] = tc.version
					}
					if tc.op != 0 {
						frame[9] = tc.op
					}
					binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], crc32.MakeTable(crc32.Castagnoli)))
				}
				log = append(log, frame...)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "wal-00000000.log")
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(11)), reef.WithDataDir(dir), reef.WithPollInterval(time.Hour))
			if err == nil {
				_ = dep.Close()
				t.Fatal("NewCentralized opened a log written by a newer binary")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("NewCentralized error = %v, want %v", err, tc.want)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != string(log) {
				t.Fatalf("the refused log changed on disk (%v): %d bytes, want %d", err, len(got), len(log))
			}
		})
	}
}
