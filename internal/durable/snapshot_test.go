package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/internal/workload"
)

// snapshotState is a state holding every field a snapshot run carries.
func snapshotState() *State {
	at := time.Date(2006, 1, 2, 15, 4, 5, 6, time.FixedZone("", 5*3600+45*60))
	flags := map[string]int{}
	for i, h := range []string{"e.test", "a.test", "d.test", "b.test", "c.test"} {
		flags[h] = 1 << i
	}
	return &State{
		Version: 1,
		Clicks: []attention.Click{
			{User: "u1", URL: "http://a.test/1", At: at, Referrer: "http://b.test/"},
			{User: "u1", URL: "http://a.test/2", At: at.UTC()},
			{User: "u2", URL: "http://c.test/3", FromEvent: true},
		},
		Flags: flags,
		Subscriptions: []SubscriptionState{
			{User: "u1", Kind: "subscribe-feed", FeedURL: "http://a.test/f.xml", Filter: `feed = "http://a.test/f.xml"`, At: at,
				Delivery: &DeliveryState{Guarantee: "at_least_once", AckTimeoutMS: 30000, MaxAttempts: 5}},
		},
		Pending: []PendingAddPayload{
			{User: "u2", ID: "r1", Seq: 1, Rec: RecommendationState{Kind: "subscribe-feed", User: "u2", FeedURL: "http://c.test/f.xml", At: at,
				Terms: []TermState{{Term: "reef", Score: 0.5}}}},
		},
		PendingSeq:    3,
		Cursors:       []CursorState{{User: "u1", ID: "http://a.test/f.xml", Acked: 2}},
		ReplPositions: []ReplPosition{{Source: "n2", Epoch: 4, Applied: 17}},
	}
}

// snapshotFile snapshots st into a fresh directory and returns the
// snapshot file's bytes.
func snapshotFile(t *testing.T, st *State) []byte {
	t.Helper()
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncNever})
	if err := b.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snap-00000001.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotDeterministic pins that one state writes byte-identical
// snapshot files, flags (a map) included, and that the file reads back
// as exactly the run StateRecords builds.
func TestSnapshotDeterministic(t *testing.T) {
	a, b := snapshotFile(t, snapshotState()), snapshotFile(t, snapshotState())
	if string(a) != string(b) {
		t.Fatalf("one state wrote two different snapshots:\n%x\n%x", a, b)
	}
	want := AppendRun(nil, StateRecords(snapshotState()))
	if got := a[len(snapMagic)+8:]; string(got) != string(want) {
		t.Fatalf("snapshot body differs from the state's run:\n%x\n%x", got, want)
	}
	if n := binary.LittleEndian.Uint64(a[len(snapMagic):]); n != uint64(len(StateRecords(snapshotState()))) {
		t.Fatalf("snapshot header counts %d records", n)
	}
}

// TestSnapshotFallsBack pins that a corrupt or torn newest snapshot,
// version 2 or version 1, is passed over for the generation before it:
// recovery returns that generation's run and WAL tail and sweeps the
// broken one.
func TestSnapshotFallsBack(t *testing.T) {
	newer := snapshotFile(t, &State{Version: 1, Flags: map[string]int{"new.test": 1}, PendingSeq: 9})
	frame := len(snapMagic) + 8 + FlagRecord("new.test", 1).EncodedLen() // header + first record
	for _, tc := range []struct {
		name, file string
		data       []byte
	}{
		{"flipped byte", "snap-00000002.bin", append(append([]byte(nil), newer[:len(newer)-1]...), newer[len(newer)-1]^1)},
		{"torn mid-record", "snap-00000002.bin", newer[:len(newer)-3]},
		{"torn at a record boundary", "snap-00000002.bin", newer[:frame]},
		{"torn header", "snap-00000002.bin", newer[:len(snapMagic)+3]},
		{"corrupt version 1", "snap-00000002.json", []byte(`{"version":1,"state":{"flags":`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
			if err := b.Snapshot(&State{Version: 1, Flags: map[string]int{"old.test": 1}}); err != nil {
				t.Fatal(err)
			}
			if err := b.Append(FlagRecord("tail.test", 2)); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal-00000002.log"), walMagic, 0o644); err != nil {
				t.Fatal(err)
			}

			b2 := openTestBackend(t, dir, FileOptions{})
			defer func() { _ = b2.Close() }()
			run, err := b2.Load()
			if err != nil {
				t.Fatal(err)
			}
			var hosts []string
			for _, r := range run {
				p, err := DecodeFlag(r)
				if err != nil {
					t.Fatal(err)
				}
				hosts = append(hosts, p.Host)
			}
			if len(hosts) != 2 || hosts[0] != "old.test" || hosts[1] != "tail.test" {
				t.Fatalf("recovered flags %v, want generation 1's [old.test tail.test]", hosts)
			}
			if g := b2.Info().Generation; g != 1 {
				t.Fatalf("recovered generation %d, want 1", g)
			}
			if _, err := os.Stat(filepath.Join(dir, tc.file)); !os.IsNotExist(err) {
				t.Fatalf("the broken snapshot was not swept: %v", err)
			}
		})
	}
}

// TestSnapshotRefusesNewerRecords pins the WAL's rule for snapshots
// too: a snapshot holding an intact record this binary cannot read was
// written by a newer one, so the open fails and leaves it as it is
// rather than falling back to an older generation and sweeping it.
func TestSnapshotRefusesNewerRecords(t *testing.T) {
	data := snapshotFile(t, &State{Version: 1, PendingSeq: 9})
	body := data[len(snapMagic)+8:]
	body[9] = byte(opMax) // the op byte of the one record
	binary.LittleEndian.PutUint32(body[4:8], crcOf(body[8:]))
	dir := t.TempDir()
	path := filepath.Join(dir, "snap-00000001.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := OpenFile(dir, FileOptions{}); !errors.Is(err, ErrUnknownOp) {
		if err == nil {
			_ = b.Close()
		}
		t.Fatalf("OpenFile = %v, want ErrUnknownOp", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(data) {
		t.Fatalf("the refused snapshot changed on disk (%v)", err)
	}
}

// TestSnapshotBytesPerClick bounds the snapshot bytes a stored click
// costs, on the clicks the attention benchmark ingests (the click store's
// TestClickStoreBytesPerClick uses the same ones): a synthetic web at
// 0.2x the default server counts (seed 2006) browsed by 100 users for 5
// days. They measure 83.9 B each, against 135.8 B in
// the version 1 JSON snapshot: a click's URL (33.6 B) and referrer (29.6
// B) are most of it, each written whole in an OpClicks record. The bound
// is that measurement plus 1 B; a smaller one needs a new click payload.
func TestSnapshotBytesPerClick(t *testing.T) {
	const maxBytesPerClick = 85
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	wcfg := websim.DefaultConfig(2006, start)
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * 0.2)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * 0.2)
	wcfg.NumSpamServers = int(float64(wcfg.NumSpamServers) * 0.2)
	web := websim.Generate(wcfg, topics.NewModel(2006, 16, 50, 80))
	gen := workload.NewGenerator(workload.DefaultConfigAdjusted(1, start, 100, 5), web)
	var clicks []attention.Click
	gen.GenerateAll(func(d workload.Day) {
		for _, c := range d.Clicks {
			clicks = append(clicks, attention.Click{User: d.User, URL: c.URL, At: c.At, Referrer: c.Referrer})
		}
	})
	data := snapshotFile(t, &State{Version: 1, Clicks: clicks})
	perClick := float64(len(data)) / float64(len(clicks))
	t.Logf("%d clicks, %d snapshot bytes, %.1f B/click", len(clicks), len(data), perClick)
	if perClick > maxBytesPerClick {
		t.Errorf("a stored click costs %.1f snapshot bytes, want <= %d", perClick, maxBytesPerClick)
	}
}
