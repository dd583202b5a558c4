package durable

import (
	"slices"
	"sync"
)

// MemBackend is the journal tests' Backend: appends accumulate in a
// slice and Snapshot swaps them for the run of the state's records, so
// a test observes the record stream without touching disk.
type MemBackend struct {
	mu        sync.Mutex
	base      []Record
	records   []Record
	snapshots int64
}

var _ Backend = (*MemBackend)(nil)

// NewMem returns an empty in-memory backend.
func NewMem() *MemBackend { return &MemBackend{} }

func (m *MemBackend) Append(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, r)
	return nil
}

func (m *MemBackend) Snapshot(st *State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.base = StateRecords(st)
	m.records = nil
	m.snapshots++
	return nil
}

func (m *MemBackend) Load() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append(slices.Clone(m.base), m.records...), nil
}

func (m *MemBackend) Flush() error { return nil }
func (m *MemBackend) Sync() error  { return nil }
func (m *MemBackend) Close() error { return nil }

// Records returns a copy of the appended records since the last snapshot.
func (m *MemBackend) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.records)
}

func (m *MemBackend) Info() Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Info{Kind: "memory", WALRecords: int64(len(m.records)), Snapshots: m.snapshots}
}
