package durable

import "sync"

// MemBackend is the in-memory Backend: appends accumulate in a slice and
// Snapshot swaps them for a state baseline. It gives deployments without
// a data directory the exact code path of the file backend (so the
// journal logic is always exercised) at memory cost only, and tests use
// it to observe the record stream without touching disk.
type MemBackend struct {
	mu        sync.Mutex
	state     *State
	records   []Record
	snapshots int64
}

var _ Backend = (*MemBackend)(nil)

// NewMem returns an empty in-memory backend.
func NewMem() *MemBackend { return &MemBackend{} }

// Append implements Backend.
func (m *MemBackend) Append(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, r)
	return nil
}

// Snapshot implements Backend.
func (m *MemBackend) Snapshot(st *State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = st
	m.records = nil
	m.snapshots++
	return nil
}

// Load implements Backend.
func (m *MemBackend) Load() (*State, []Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tail := make([]Record, len(m.records))
	copy(tail, m.records)
	return m.state, tail, nil
}

// Flush implements Backend (a no-op: appends are never buffered).
func (m *MemBackend) Flush() error { return nil }

// Sync implements Backend (a no-op: memory is as durable as it gets).
func (m *MemBackend) Sync() error { return nil }

// Records returns a copy of the appended records since the last snapshot.
func (m *MemBackend) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.records))
	copy(out, m.records)
	return out
}

// Info implements Backend.
func (m *MemBackend) Info() Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bytes int64
	for _, r := range m.records {
		bytes += int64(r.EncodedLen())
	}
	return Info{
		Kind:       "memory",
		WALRecords: int64(len(m.records)),
		WALBytes:   bytes,
		Snapshots:  m.snapshots,
	}
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }
