package durable

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Journal coordinates WAL appends with snapshot compaction. Every durable
// mutation goes through Record, which applies the mutation and appends its
// WAL record under the journal lock; Snapshot captures the full state
// under the same lock. The exclusion gives two invariants the race tests
// pin down: WAL append order equals apply order, and a mutation is either
// fully inside a snapshot or fully in the new WAL segment — never in
// both, never in neither.
//
// A Journal starts disarmed: Record applies mutations without logging
// them, which is exactly what recovery replay needs (replaying a WAL must
// not re-append its own records). Arm turns live logging on once replay
// finishes. A nil *Journal, or one built over a nil Backend, is a valid
// always-disarmed journal with near-zero overhead — the in-memory no-op
// behavior deployments get without a data directory.
type Journal struct {
	mu      sync.Mutex
	backend Backend

	armed   atomic.Bool
	capture func() (*State, error)

	// tap, when set, observes every record appended through Record —
	// under the journal lock, so tap order equals append order. It is
	// the replication feed: only live, locally-originated mutations
	// reach it (recovery replay is disarmed and never appends; Ingest
	// deliberately bypasses it so replicated records are not re-shipped
	// in a loop). Guarded by mu: SetTap and the firing site both hold
	// the journal lock.
	tap func(Record)

	// snapshotEvery triggers an async compaction after that many appends
	// (0 disables auto-compaction).
	snapshotEvery int64
	sinceSnap     atomic.Int64
	compacting    atomic.Bool
	wg            sync.WaitGroup
}

// NewJournal wraps a backend; nil yields a disabled journal.
func NewJournal(b Backend) *Journal {
	return &Journal{backend: b}
}

// Enabled reports whether mutations are (or will be, after Arm) logged.
func (j *Journal) Enabled() bool { return j != nil && j.backend != nil }

// Load returns the records recovery replays: the latest snapshot's run,
// then the intact WAL tail.
func (j *Journal) Load() ([]Record, error) {
	if !j.Enabled() {
		return nil, nil
	}
	return j.backend.Load()
}

// Arm enables live logging. capture must return the full current state
// (called with the journal's exclusive lock held, so no mutation is in
// flight); snapshotEvery > 0 compacts automatically after that many
// appends.
func (j *Journal) Arm(capture func() (*State, error), snapshotEvery int) {
	if !j.Enabled() {
		return
	}
	j.capture = capture
	j.snapshotEvery = int64(snapshotEvery)
	j.armed.Store(true)
}

// Record applies one durable mutation. apply runs and, if it succeeds
// while the journal is armed, rec() is appended to the WAL before the
// lock is released. The lock is exclusive: mutations serialize through
// the journal, so WAL append order always equals apply order — replaying
// the log reproduces the state even for racing mutations of the same
// entity (a shared lock would let apply and append order diverge).
// When disarmed, Record is just apply().
//
// Lock-ordering rule this imposes: callers must not hold any lock a
// Record apply could need when calling Record (the journal lock is
// always outermost). Deployment capture functions follow the same rule.
//
// The state-superset invariant: a record reaches the WAL only after its
// mutation applied, so replaying any WAL prefix re-applies operations
// that really happened. A crash between apply and append loses at most
// that one operation — the same torn-tail window an fsync-less append
// already has.
func (j *Journal) Record(apply func() error, rec func() Record) error {
	if j == nil || j.backend == nil || !j.armed.Load() {
		return apply()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := apply(); err != nil {
		return err
	}
	// Re-check armed under the lock: Close disarms and then takes the
	// lock as a barrier, so a Record that lost that race skips the append
	// (the same at-most-one-op loss window a crash has) instead of
	// writing to a closing backend.
	if !j.armed.Load() {
		return nil
	}
	r := rec()
	if err := j.backend.Append(r); err != nil {
		return fmt.Errorf("durable: mutation applied but not logged: %w", err)
	}
	if j.tap != nil {
		j.tap(r)
	}
	j.maybeCompact()
	return nil
}

// SetTap registers the record observer Record feeds (see the tap field
// doc). The write is serialized against in-flight Records by the
// journal lock, so wiring the tap after Arm but before first traffic
// is safe. A nil or disabled journal ignores it — memory-only
// deployments have no log and thus nothing to ship.
func (j *Journal) SetTap(tap func(Record)) {
	if !j.Enabled() {
		return
	}
	j.mu.Lock()
	j.tap = tap
	j.mu.Unlock()
}

// Ingest applies and logs one replicated record: the same
// apply-then-append exclusion as Record, but with a concrete record
// (it was already encoded by the origin node) and WITHOUT feeding the
// tap — a replica must not re-ship records it received, or two nodes
// replicating to each other would loop forever. Disarmed journals just
// apply, mirroring Record.
func (j *Journal) Ingest(apply func() error, rec Record) error {
	if j == nil || j.backend == nil || !j.armed.Load() {
		return apply()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := apply(); err != nil {
		return err
	}
	if !j.armed.Load() {
		return nil
	}
	if err := j.backend.Append(rec); err != nil {
		return fmt.Errorf("durable: replicated mutation applied but not logged: %w", err)
	}
	j.maybeCompact()
	return nil
}

// Capture returns the full current state under the journal lock, for a
// replication resync cut, and calls pin under the same lock: the cut is
// consistent (no mutation in flight), and what pin reads of the tap's
// effects — a replication peer's queue position — is exactly what the
// cut holds, so every tapped record is either inside the cut or shipped
// after it, never both. A disabled journal cuts nothing (nil) and still
// calls pin.
func (j *Journal) Capture(pin func()) (*State, error) {
	if !j.Enabled() || j.capture == nil {
		pin()
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	pin()
	return j.capture()
}

// maybeCompact launches one async snapshot when the append count crosses
// the threshold. The CAS guarantees a single compactor at a time.
func (j *Journal) maybeCompact() {
	if j.snapshotEvery <= 0 {
		return
	}
	if j.sinceSnap.Add(1) < j.snapshotEvery {
		return
	}
	if !j.compacting.CompareAndSwap(false, true) {
		return
	}
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		defer j.compacting.Store(false)
		// Best effort: a failed background compaction leaves the WAL
		// growing, not the state wrong; the next threshold retries.
		_ = j.Snapshot()
	}()
}

// Snapshot captures the full state under the journal lock — no mutation
// in flight — and makes it the backend's new recovery baseline. It stays
// callable while Close drains in-flight compactions (Close disarms
// first, then waits).
func (j *Journal) Snapshot() error {
	if !j.Enabled() || j.capture == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st, err := j.capture()
	if err != nil {
		return fmt.Errorf("durable: capturing snapshot state: %w", err)
	}
	if err := j.backend.Snapshot(st); err != nil {
		return err
	}
	j.sinceSnap.Store(0)
	return nil
}

// Flush hands buffered appends to the operating system (see
// Backend.Flush).
func (j *Journal) Flush() error {
	if !j.Enabled() {
		return nil
	}
	return j.backend.Flush()
}

// Sync forces buffered appends to stable storage.
func (j *Journal) Sync() error {
	if !j.Enabled() {
		return nil
	}
	return j.backend.Sync()
}

// Info reports the backend's storage state ("memory" when disabled).
func (j *Journal) Info() Info {
	if !j.Enabled() {
		return Info{Kind: "memory"}
	}
	return j.backend.Info()
}

// quiesce disarms the journal and drains in-flight work: the lock
// barriers out every in-flight Record (appends and compaction triggers
// included), and the wait covers any compactor they launched. After
// quiesce no goroutine touches the backend.
func (j *Journal) quiesce() {
	j.armed.Store(false)
	// The empty critical section is the barrier: it returns only once
	// every in-flight Record has drained.
	j.mu.Lock()
	j.mu.Unlock()
	j.wg.Wait()
}

// Close disarms the journal, waits for in-flight records and
// compactions, and closes the backend (flushing buffered appends).
func (j *Journal) Close() error {
	if !j.Enabled() {
		return nil
	}
	j.quiesce()
	return j.backend.Close()
}

// Crash closes the backend without flushing, when the backend supports
// fault injection (FileBackend); otherwise it behaves like Close.
func (j *Journal) Crash() error {
	if !j.Enabled() {
		return nil
	}
	j.quiesce()
	if c, ok := j.backend.(interface{ Crash() error }); ok {
		return c.Crash()
	}
	return j.backend.Close()
}
