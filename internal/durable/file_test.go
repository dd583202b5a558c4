package durable

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"reef/internal/attention"
)

func openTestBackend(t *testing.T, dir string, opt FileOptions) *FileBackend {
	t.Helper()
	b, err := OpenFile(dir, opt)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", dir, err)
	}
	return b
}

// TestFileBackendAppendReopen pins the basic WAL cycle: append, close,
// reopen, replay.
func TestFileBackendAppendReopen(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	recs := sampleRecords()
	for _, r := range recs {
		if err := b.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	b2 := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	defer func() { _ = b2.Close() }()
	tail, err := b2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tail) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(tail), len(recs))
	}
	for i, r := range recs {
		if tail[i].Op != r.Op || string(tail[i].Payload) != string(r.Payload) {
			t.Errorf("record %d mismatch after reopen", i)
		}
	}
	info := b2.Info()
	if info.RecoveredRecords != int64(len(recs)) || info.TornTail {
		t.Errorf("Info = %+v, want %d recovered and no torn tail", info, len(recs))
	}
}

// TestFileBackendSnapshotRotation checks generation rotation: the
// snapshot becomes the baseline, the WAL restarts, old files go away.
func TestFileBackendSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	if err := b.Append(FlagRecord("old.test", 1)); err != nil {
		t.Fatal(err)
	}
	st := &State{Version: 1, Flags: map[string]int{"old.test": 1}}
	if err := b.Snapshot(st); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := b.Append(FlagRecord("new.test", 2)); err != nil {
		t.Fatal(err)
	}
	info := b.Info()
	if info.Generation != 1 || info.Snapshots != 1 || info.WALRecords != 1 {
		t.Errorf("post-rotation Info = %+v", info)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Generation-0 files must be gone.
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); !os.IsNotExist(err) {
		t.Errorf("old WAL still present: %v", err)
	}

	b2 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b2.Close() }()
	run, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(run) != 2 || string(run[0].Payload) != string(FlagRecord("old.test", 1).Payload) {
		t.Fatalf("snapshot state not recovered: %+v", run)
	}
	if tail := run[1:]; tail[0].Op != OpFlag {
		t.Fatalf("tail = %d records, want the post-snapshot append", len(tail))
	}
}

// TestFileBackendTornTail writes a WAL, truncates it mid-record, and
// checks recovery stops cleanly at the last intact record — and that new
// appends after reopen land at the truncation point, not after garbage.
func TestFileBackendTornTail(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	for i := 0; i < 3; i++ {
		if err := b.Append(ClicksRecord([]attention.Click{{User: "u", URL: "http://h.test/p", At: time.Unix(int64(i), 0)}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal-00000000.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last record's body.
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	b2 := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	tail, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 {
		t.Fatalf("recovered %d records from torn WAL, want 2", len(tail))
	}
	if info := b2.Info(); !info.TornTail {
		t.Error("Info.TornTail = false after torn recovery")
	}
	// Appending after a torn recovery must produce a clean log again.
	if err := b2.Append(FlagRecord("fresh.test", 4)); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	b3 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b3.Close() }()
	tail3, err := b3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail3) != 3 {
		t.Fatalf("post-repair recovery = %d records, want 3", len(tail3))
	}
	if info := b3.Info(); info.TornTail {
		t.Error("TornTail sticky after repair")
	}
}

// TestFileBackendCrashLosesBufferedTail pins the Crash fault hook: with
// SyncNever, appends since the last flush vanish; with SyncAlways they
// all survive.
func TestFileBackendCrashLosesBufferedTail(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncNever})
	if err := b.Append(FlagRecord("durable.test", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(FlagRecord("volatile.test", 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}
	b2 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b2.Close() }()
	tail, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 {
		t.Fatalf("crash recovery = %d records, want only the synced one", len(tail))
	}
}

// TestFileBackendIgnoresStaleTmp simulates a crash mid-snapshot: a .tmp
// file must be ignored (and swept) while the previous generation recovers.
func TestFileBackendIgnoresStaleTmp(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	if err := b.Append(FlagRecord("keep.test", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "snap-00000001.json.tmp")
	if err := os.WriteFile(tmp, []byte(`{"version":1,"state":{"half":"written`), 0o644); err != nil {
		t.Fatal(err)
	}

	b2 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b2.Close() }()
	tail, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 {
		t.Fatalf("recovery with stale tmp: records=%d", len(tail))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale tmp not swept: %v", err)
	}
}

// TestFileBackendRepairsGarbageHeader pins the header-rewrite rule: a WAL
// whose magic is corrupt loses its old records (they cannot be trusted)
// but the session's new appends must survive the next recovery — the
// header is rewritten, not left as garbage.
func TestFileBackendRepairsGarbageHeader(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal-00000000.log")
	if err := os.WriteFile(walPath, []byte("GARBAGE!plus some trailing noise"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	if info := b.Info(); !info.TornTail {
		t.Error("corrupt header not reported as torn")
	}
	if err := b.Append(FlagRecord("fresh.test", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b2.Close() }()
	tail, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Op != OpFlag {
		t.Fatalf("append after header repair lost: %d records", len(tail))
	}
	if info := b2.Info(); info.TornTail {
		t.Error("TornTail sticky after header repair")
	}
}

// TestFileBackendInterruptedSnapshotKeepsData simulates a crash between
// creating the next WAL segment and publishing its snapshot: recovery
// must resume the old (lowest) generation, whose WAL holds the data, and
// sweep the stale empty segment.
func TestFileBackendInterruptedSnapshotKeepsData(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAlways})
	if err := b.Append(FlagRecord("keep.test", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash artifact: wal-1 exists (header only), snap-1 does not.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), walMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	b2 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b2.Close() }()
	tail, err := b2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 {
		t.Fatalf("recovery picked the stale segment: %d records, want 1", len(tail))
	}
	if info := b2.Info(); info.Generation != 0 {
		t.Errorf("Generation = %d, want 0 (the data-bearing one)", info.Generation)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-00000001.log")); !os.IsNotExist(err) {
		t.Error("stale higher-generation WAL not swept")
	}
}

// TestFileBackendAsyncFlush checks the SyncAsync background flusher makes
// appends durable without explicit Sync calls.
func TestFileBackendAsyncFlush(t *testing.T) {
	dir := t.TempDir()
	b := openTestBackend(t, dir, FileOptions{Sync: SyncAsync, FlushEvery: 5 * time.Millisecond})
	if err := b.Append(FlagRecord("async.test", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, err := os.ReadFile(filepath.Join(dir, "wal-00000000.log"))
		if err == nil && len(data) > len(walMagic) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async flusher never wrote the record")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := b.Crash(); err != nil { // crash AFTER flush: record must survive
		t.Fatal(err)
	}
	b2 := openTestBackend(t, dir, FileOptions{})
	defer func() { _ = b2.Close() }()
	if tail, _ := b2.Load(); len(tail) != 1 {
		t.Fatalf("async-flushed record lost: %d records", len(tail))
	}
}
