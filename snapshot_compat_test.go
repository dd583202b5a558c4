package reef_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
)

// The snap-v1 fixture is a root-layout data directory written by the
// release before snapshots became runs of records: a version 1 JSON
// snapshot, snap-00000001.json, and a WAL tail after it. Between them
// they hold clicks and flags, pending recommendations of alice and bob
// (alice accepted her last one, r9, so the pending-ID counter, 9,
// exceeds every pending ID), bob's reliable subscription acked to seq
// 2, a replication position, and carol's click and recommendations in
// the tail. snap-v1.golden.json is the golden state that release
// captured just before closing the directory.
const (
	snapV1Dir    = "testdata/snap-v1"
	snapV1Golden = "testdata/snap-v1.golden.json"
	snapV1Seq    = 9 // the pending-ID counter the fixture's snapshot holds
)

var (
	snapV1Users     = []string{"alice", "bob", "carol"}
	snapV1Positions = []durable.ReplPosition{{Source: "n2", Epoch: 4, Applied: 17}}
)

// snapV1State reads the fixture's golden state.
func snapV1State(t *testing.T) *durabletest.GoldenState {
	t.Helper()
	data, err := os.ReadFile(snapV1Golden)
	if err != nil {
		t.Fatal(err)
	}
	var want durabletest.GoldenState
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return &want
}

// checkSnapV1 compares dep's golden state and replication positions with
// what the fixture's release recorded.
func checkSnapV1(t *testing.T, step string, dep *reef.Centralized) {
	t.Helper()
	got, err := durabletest.Capture(context.Background(), dep, snapV1Users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(snapV1State(t), got); err != nil || diff != "" {
		t.Fatalf("%s: state differs from the fixture's golden (%v):\n%s", step, err, diff)
	}
	if got := dep.ReplicationPositions(); !reflect.DeepEqual(got, snapV1Positions) {
		t.Fatalf("%s: positions = %+v, want %+v", step, got, snapV1Positions)
	}
}

// snapFiles lists dir's snapshot files by name.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out {
		out[i] = filepath.Base(p)
	}
	sort.Strings(out)
	return out
}

// TestSnapshotVersion1Fixture pins that a version 1 JSON snapshot reads
// as the run of its state: at 1, 2 and 3 shards the fixture reopens to
// its golden state, and so does the version 2 snapshot this binary
// writes of it, which replaces the JSON file. A recommendation made
// after that reopen gets an ID past the fixture's counter, so it
// collides with none alice ever held.
func TestSnapshotVersion1Fixture(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(snapV1Dir)); err != nil {
				t.Fatal(err)
			}
			dep := openFixture(t, dir, shards)
			checkSnapV1(t, "reopened from the version 1 snapshot", dep)
			if _, err := dep.Snapshot(ctx); err != nil {
				t.Fatal(err)
			}
			if err := dep.Close(); err != nil {
				t.Fatal(err)
			}
			if got := snapFiles(t, dir); len(got) != 1 || !strings.HasSuffix(got[0], ".bin") {
				t.Fatalf("snapshot files after a re-snapshot = %v, want one version 2 file", got)
			}

			dep = openFixture(t, dir, shards)
			defer func() { _ = dep.Close() }()
			checkSnapV1(t, "reopened from the version 2 snapshot", dep)

			// New browsing on hosts alice never visited makes fresh
			// recommendations for her.
			web := testWeb(11)
			at := dt0.Add(time.Hour)
			for _, s := range feedServers(web)[6:9] {
				for _, url := range s.PageURLs() {
					at = at.Add(3e9)
					if _, err := dep.IngestClicks(ctx, []reef.Click{{User: "alice", URL: url, At: at}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			dep.RunPipeline(at)
			recs, err := dep.Recommendations(ctx, "alice")
			if err != nil {
				t.Fatal(err)
			}
			held := map[string]bool{}
			for _, r := range snapV1State(t).Pending["alice"] {
				held[r.ID] = true
			}
			fresh := 0
			for _, r := range recs {
				if held[r.ID] {
					continue
				}
				fresh++
				if n, err := strconv.ParseInt(strings.TrimPrefix(r.ID, "r"), 10, 64); err != nil || n <= snapV1Seq {
					t.Errorf("new recommendation %s for %s reuses an ID at or below the fixture's counter r%d", r.ID, r.FeedURL, snapV1Seq)
				}
			}
			if fresh == 0 {
				t.Fatalf("no new recommendation for alice among %d", len(recs))
			}
		})
	}
}
