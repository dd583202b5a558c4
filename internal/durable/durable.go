// Package durable is the persistence subsystem of the Reef deployments:
// an append-only write-ahead log of length-prefixed, CRC-checksummed,
// versioned records plus periodic compacting snapshots, standing in for
// the MySQL database behind the paper's centralized prototype (§3.1).
//
// There is one durable format: a snapshot, and the resync cut a
// replication sender ships, are the run of records that rebuilds the
// state (StateRecords), so recovery replays a snapshot and the WAL after
// it as one run.
//
// The design splits three concerns:
//
//   - Record framing (record.go, codec.go, payload.go): a
//     self-describing binary frame whose decoder returns typed errors
//     and never panics, so recovery can stop cleanly at the first torn
//     record of an uncleanly closed log, and the typed payload of every
//     op. It is the one codec of both planes: BeginFrame/EndFrame build
//     every frame in place — a WAL record, a stream frame, a
//     replication link message — and Reader reads every binary payload,
//     the WAL's and package reefstream's alike.
//   - Backend (file.go): where the log and snapshots live. The file
//     backend keeps one WAL and one snapshot per generation and rotates
//     atomically (write-tmp, fsync, rename); a journal without a backend
//     keeps the all-in-memory behavior at zero cost.
//   - Journal (journal.go): the coordination point between mutators and
//     the snapshot compactor. Mutations apply and append under a shared
//     lock; snapshot capture takes the lock exclusively, guaranteeing the
//     snapshot plus the new WAL tail together hold exactly the applied
//     operations — no record is lost or duplicated across the handoff.
//
// The recovery invariant: after Open, the in-memory state equals the
// state produced by applying, in order, every record of the latest
// snapshot's run followed by every intact WAL record before the first
// torn one.
package durable

import (
	"time"
)

// SyncPolicy selects when appended WAL records reach stable storage.
type SyncPolicy int

// Sync policies. The zero value is invalid so defaults stay explicit.
const (
	// SyncAsync buffers appends and flushes+fsyncs on a short background
	// interval (default 50ms): bounded loss window, near-zero append cost.
	SyncAsync SyncPolicy = iota + 1
	// SyncAlways flushes and fsyncs every append before it returns:
	// no loss window, one disk round trip per operation.
	SyncAlways
	// SyncNever buffers appends and flushes only on snapshot, rotation and
	// close: fastest, loses the buffered tail on a crash.
	SyncNever
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAsync:
		return "async"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "unknown"
	}
}

// Info describes a backend's storage state for the admin surface.
type Info struct {
	// Kind is "file" or "memory".
	Kind string `json:"kind"`
	// Dir is the data directory (file backend only).
	Dir string `json:"dir,omitempty"`
	// Sync is the active sync policy name (file backend only).
	Sync string `json:"sync,omitempty"`
	// Generation counts snapshot rotations over the directory's lifetime.
	Generation uint64 `json:"generation"`
	// WALRecords is the record count of the current WAL segment.
	WALRecords int64 `json:"wal_records"`
	// WALBytes is the byte size of the current WAL segment.
	WALBytes int64 `json:"wal_bytes"`
	// Snapshots counts snapshots taken since this backend was opened.
	Snapshots int64 `json:"snapshots"`
	// Syncs counts the WAL fsyncs since this backend was opened.
	Syncs int64 `json:"syncs"`
	// LastSnapshot is when the latest snapshot was written (zero if none).
	LastSnapshot time.Time `json:"last_snapshot,omitempty"`
	// RecoveredRecords is how many WAL records were replayed at open.
	RecoveredRecords int64 `json:"recovered_records"`
	// TornTail reports that the WAL ended in a torn or corrupt record at
	// open; recovery stopped cleanly at the last intact record.
	TornTail bool `json:"torn_tail,omitempty"`
}

// Backend stores the WAL and snapshots. Implementations must be safe for
// concurrent Append calls; Snapshot and Load are serialized by the Journal.
type Backend interface {
	// Append adds one record to the current WAL segment.
	Append(r Record) error
	// Snapshot makes the run of st's records (StateRecords) the new
	// recovery baseline and starts a fresh WAL segment; earlier segments
	// and snapshots are superseded.
	Snapshot(st *State) error
	// Load returns the records recovery replays: the latest snapshot's
	// run, then the intact WAL tail recorded after it. A torn tail is not
	// an error; it is reported via Info().TornTail.
	Load() ([]Record, error)
	// Flush hands buffered appends to the operating system without
	// waiting for stable storage: they then survive the process, not the
	// machine.
	Flush() error
	// Sync forces buffered appends to stable storage.
	Sync() error
	// Info reports storage state.
	Info() Info
	// Close flushes and releases resources.
	Close() error
}
