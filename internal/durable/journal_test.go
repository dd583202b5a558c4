package durable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestJournalDisarmedAppliesWithoutLogging pins the replay-mode contract:
// before Arm, mutations apply but no record reaches the backend. A nil
// journal behaves the same.
func TestJournalDisarmedAppliesWithoutLogging(t *testing.T) {
	mem := NewMem()
	j := NewJournal(mem)
	applied := false
	if err := j.Record(
		func() error { applied = true; return nil },
		func() Record { t.Fatal("rec() called while disarmed"); return Record{} },
	); err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("apply not called while disarmed")
	}
	if n := len(mem.Records()); n != 0 {
		t.Fatalf("disarmed journal appended %d records", n)
	}

	var nilJ *Journal
	if err := nilJ.Record(func() error { return nil }, nil); err != nil {
		t.Fatalf("nil journal Record: %v", err)
	}
}

// TestJournalArmedLogsOnSuccessOnly checks the state-superset invariant:
// records land only for mutations that applied.
func TestJournalArmedLogsOnSuccessOnly(t *testing.T) {
	mem := NewMem()
	j := NewJournal(mem)
	j.Arm(func() (*State, error) { return &State{Version: 1}, nil }, 0)

	if err := j.Record(
		func() error { return nil },
		func() Record { return FlagRecord("ok.test", 1) },
	); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mutation failed")
	if err := j.Record(
		func() error { return boom },
		func() Record { t.Fatal("rec() called for failed mutation"); return Record{} },
	); !errors.Is(err, boom) {
		t.Fatalf("Record error = %v, want the apply error", err)
	}
	recs := mem.Records()
	if len(recs) != 1 || recs[0].Op != OpFlag {
		t.Fatalf("backend holds %d records, want exactly the successful one", len(recs))
	}
}

// TestJournalSnapshotHandoff hammers Record from many goroutines while
// snapshots run, then checks no operation was lost or duplicated across
// the snapshot/WAL handoff: every applied op is either inside the
// captured state or in the post-snapshot record stream, exactly once.
func TestJournalSnapshotHandoff(t *testing.T) {
	mem := NewMem()
	j := NewJournal(mem)

	var mu sync.Mutex
	state := 0 // the "deployment state": a counter of applied ops
	j.Arm(func() (*State, error) {
		mu.Lock()
		defer mu.Unlock()
		return &State{Version: 1, PendingSeq: int64(state)}, nil
	}, 0)

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	var applied atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_ = j.Record(
					func() error {
						mu.Lock()
						state++
						mu.Unlock()
						applied.Add(1)
						return nil
					},
					func() Record { return FlagRecord("h.test", 1) },
				)
			}
		}()
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 20; i++ {
			if err := j.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-snapDone

	run, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's counter is its run's one OpPendingSeq record (none
	// for a zero counter); the rest is the WAL tail.
	base, tail := int64(0), run
	if len(run) > 0 && run[0].Op == OpPendingSeq {
		if base, err = DecodePendingSeq(run[0]); err != nil {
			t.Fatal(err)
		}
		tail = run[1:]
	}
	if got := base + int64(len(tail)); got != applied.Load() {
		t.Fatalf("snapshot(%d) + wal(%d) = %d ops, want %d: handoff lost or duplicated records",
			base, len(tail), got, applied.Load())
	}
}

// TestJournalTap pins the replication feed: the tap sees exactly the
// records appended through Record, in append order, and nothing from
// Ingest (replicated records must not be re-shipped) or from failed or
// disarmed mutations.
func TestJournalTap(t *testing.T) {
	mem := NewMem()
	j := NewJournal(mem)
	var tapped []Record
	j.SetTap(func(r Record) { tapped = append(tapped, r) })

	// Disarmed: applies, no log, no tap.
	if err := j.Record(func() error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if len(tapped) != 0 {
		t.Fatalf("tap fired while disarmed: %d records", len(tapped))
	}

	j.Arm(func() (*State, error) { return &State{Version: 1}, nil }, 0)
	if err := j.Record(
		func() error { return nil },
		func() Record { return FlagRecord("a.test", 1) },
	); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("nope")
	_ = j.Record(func() error { return boom }, nil)
	if err := j.Ingest(func() error { return nil }, FlagRecord("b.test", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(
		func() error { return nil },
		func() Record { return FlagRecord("c.test", 3) },
	); err != nil {
		t.Fatal(err)
	}

	if len(tapped) != 2 || tapped[0].Op != OpFlag || tapped[1].Op != OpFlag {
		t.Fatalf("tap saw %d records, want the 2 local ones", len(tapped))
	}
	f0, err := DecodeFlag(tapped[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := DecodeFlag(tapped[1])
	if err != nil {
		t.Fatal(err)
	}
	if f0.Host != "a.test" || f1.Host != "c.test" {
		t.Fatalf("tap order/content = %s, %s; want a.test then c.test", f0.Host, f1.Host)
	}
	// The backend holds local AND ingested records: ingest is durable.
	if n := len(mem.Records()); n != 3 {
		t.Fatalf("backend holds %d records, want 3 (2 local + 1 ingested)", n)
	}

	// SetTap on a disabled journal is a no-op, like everything else.
	var nilJ *Journal
	nilJ.SetTap(func(Record) { t.Fatal("tap on nil journal") })
	disabled := NewJournal(nil)
	disabled.SetTap(func(Record) { t.Fatal("tap on disabled journal") })
	if err := disabled.Ingest(func() error { return nil }, Record{}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalIngestErrors pins Ingest's apply-first contract: a failed
// apply logs nothing.
func TestJournalIngestErrors(t *testing.T) {
	mem := NewMem()
	j := NewJournal(mem)
	j.Arm(func() (*State, error) { return &State{Version: 1}, nil }, 0)
	boom := errors.New("apply failed")
	if err := j.Ingest(func() error { return boom }, FlagRecord("x.test", 1)); !errors.Is(err, boom) {
		t.Fatalf("Ingest error = %v, want the apply error", err)
	}
	if n := len(mem.Records()); n != 0 {
		t.Fatalf("failed ingest logged %d records", n)
	}
}

// TestJournalCapture pins the snapshot-cut helper: Capture returns the
// armed capture function's state under the lock, and nil when the
// journal is disabled or not yet armed. It calls pin once in every case,
// and under the journal lock when armed.
func TestJournalCapture(t *testing.T) {
	pins := 0
	pin := func() { pins++ }
	var nilJ *Journal
	if st, err := nilJ.Capture(pin); st != nil || err != nil {
		t.Fatalf("nil journal Capture = (%v, %v), want (nil, nil)", st, err)
	}
	mem := NewMem()
	j := NewJournal(mem)
	if st, err := j.Capture(pin); st != nil || err != nil {
		t.Fatalf("unarmed Capture = (%v, %v), want (nil, nil)", st, err)
	}
	j.Arm(func() (*State, error) { return &State{Version: 1, PendingSeq: 42}, nil }, 0)
	st, err := j.Capture(func() {
		pins++
		if j.mu.TryLock() {
			j.mu.Unlock()
			t.Error("pin ran without the journal lock")
		}
	})
	if err != nil || st == nil || st.PendingSeq != 42 {
		t.Fatalf("Capture = (%+v, %v), want the armed capture state", st, err)
	}
	if pins != 3 {
		t.Fatalf("pin ran %d times over three captures, want 3", pins)
	}
}

// TestJournalAutoCompaction checks the WithSnapshotEvery trigger: once
// appends cross the threshold a background snapshot compacts the WAL.
func TestJournalAutoCompaction(t *testing.T) {
	mem := NewMem()
	j := NewJournal(mem)
	j.Arm(func() (*State, error) { return &State{Version: 1}, nil }, 10)
	for i := 0; i < 25; i++ {
		if err := j.Record(
			func() error { return nil },
			func() Record { return FlagRecord("h.test", 1) },
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil { // waits for in-flight compactions
		t.Fatal(err)
	}
	if mem.Info().Snapshots == 0 {
		t.Fatal("no automatic compaction after crossing the threshold")
	}
}
