// Package delivery implements the reliable-delivery tier of the Reef
// pub-sub substrate: per-subscription retained-event queues with
// cumulative ack cursors, lease-based redelivery with bounded jittered
// backoff, a max-attempts cap and a per-subscription dead-letter queue.
//
// The broker itself stays best-effort (a hosted frontend's bounded
// sidebar evicts its oldest item, as the paper's prototype lets ignored
// events expire). Reliability is layered on top: every event the broker
// matches to an at-least-once subscription is appended to that
// subscription's Queue by the publisher itself (the frontend's tap, run
// by the subscription's handler ahead of the sidebar), where it stays
// until the consumer acks past it or it exhausts its delivery attempts
// and moves to the dead-letter queue. Only the cumulative cursor is durable (the engine journals it
// as a WAL record); the retained window and the DLQ are in-memory, so a
// server crash truncates them while the cursor — and therefore the
// consumer's resume point — survives byte-exactly.
//
// All methods take the current time as an argument rather than reading a
// clock, so the engine's simclock (virtual in tests, wall in production)
// stays the single time source.
package delivery

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"reef/internal/pubsub"
)

// ErrSeqBeyondDelivered is wrapped by Ack/Nack when the acknowledged
// sequence number was never handed to a consumer.
var ErrSeqBeyondDelivered = errors.New("delivery: seq beyond last delivered")

// Defaults applied by NewQueue when the Config leaves a knob zero.
const (
	DefaultAckTimeout  = 30 * time.Second
	DefaultMaxAttempts = 5
	DefaultBackoffBase = 200 * time.Millisecond
	DefaultBackoffMax  = 30 * time.Second
	DefaultCapacity    = 4096
)

// Dead-letter reasons.
const (
	ReasonMaxAttempts = "max-attempts"
	ReasonOverflow    = "overflow"
)

// Config tunes one subscription's reliable-delivery queue.
type Config struct {
	// AckTimeout is the lease each fetched event carries; an event not
	// acked within it becomes eligible for redelivery (plus backoff).
	AckTimeout time.Duration
	// MaxAttempts caps deliveries per event; once exhausted the event is
	// dead-lettered instead of redelivered.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// added to the lease on each redelivery.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Capacity bounds the retained window. When exceeded, the oldest
	// retained events are dead-lettered (reason "overflow") rather than
	// silently dropped, keeping the at-least-once contract inspectable.
	Capacity int
	// Jitter, when set, replaces the default randomized jitter (for
	// deterministic tests). It receives the full backoff and returns the
	// jittered value.
	Jitter func(d time.Duration) time.Duration
}

// withDefaults fills zero knobs with package defaults.
func (c Config) withDefaults() Config {
	if c.AckTimeout <= 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.Jitter == nil {
		// Jittered in [d/2, d]: bounded below so redelivery never fires
		// immediately, bounded above by the computed backoff.
		c.Jitter = func(d time.Duration) time.Duration {
			if d <= 1 {
				return d
			}
			half := d / 2
			return half + time.Duration(rand.Int63n(int64(d-half)+1))
		}
	}
	return c
}

// Delivered is one event handed to a consumer by Fetch.
type Delivered struct {
	// Seq is the event's position in the subscription's total order,
	// starting at 1. Acks are cumulative over it.
	Seq int64
	// Attempts counts deliveries of this event including this one.
	Attempts int
	Event    pubsub.Event
}

// DeadLetter is one event that exhausted its delivery attempts (or was
// evicted by the capacity bound) without being acked.
type DeadLetter struct {
	Seq      int64
	Attempts int
	Event    pubsub.Event
	At       time.Time
	Reason   string
}

// entry is one retained event awaiting ack.
type entry struct {
	seq      int64
	attempts int
	// nextAt is the earliest instant the entry may be delivered again
	// (zero for never-delivered entries, which are always eligible).
	nextAt time.Time
	// nacked marks that the entry's next redelivery was requested by the
	// consumer (Nack) rather than forced by a lease running out —
	// FetchInto uses it to attribute the redelivery correctly.
	nacked bool
	ev     pubsub.Event
}

// Queue is one subscription's reliable-delivery state. Safe for
// concurrent use.
type Queue struct {
	mu      sync.Mutex
	cfg     Config
	nextSeq int64 // last assigned sequence number
	acked   int64 // cumulative cursor: everything <= acked is done
	pending []*entry
	dlq     []DeadLetter

	// watchers receive a non-blocking signal on every Append and on an
	// Ack that leaves events retained; this is the hook that lets pushed
	// delivery (and REST long-poll) replace tight fetch loops. Keyed so
	// cancel is O(1) under churn.
	watchers   map[uint64]chan<- struct{}
	watcherSeq uint64

	appended      int64
	ackedCount    int64
	redeliveries  int64
	deadLettered  int64
	leaseExpiries int64
}

// NewQueue builds a queue, applying defaults for zero Config knobs.
func NewQueue(cfg Config) *Queue {
	return &Queue{cfg: cfg.withDefaults()}
}

// Config returns the queue's effective (default-filled) configuration.
func (q *Queue) Config() Config {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cfg
}

// Append retains one event under the next sequence number and signals
// every registered watcher (non-blocking: a watcher channel that is
// already full has already been told there is work).
func (q *Queue) Append(ev pubsub.Event, now time.Time) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextSeq++
	q.appended++
	q.pending = append(q.pending, &entry{seq: q.nextSeq, ev: ev})
	for len(q.pending) > q.cfg.Capacity {
		q.deadLetterLocked(q.pending[0], now, ReasonOverflow)
		q.pending = q.pending[1:]
	}
	q.signalLocked()
	return q.nextSeq
}

// signalLocked wakes every registered watcher (non-blocking: a full
// channel has already been told there is work). Caller must hold q.mu.
func (q *Queue) signalLocked() {
	for _, ch := range q.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Notify registers ch for a non-blocking signal on every Append, and on
// every Ack that leaves events retained, and returns a cancel func that
// unregisters it. The signal is an edge, not a level: use a 1-buffered
// channel and always re-Fetch after waking. Lease expiry does NOT
// signal — a waiter that also cares about redelivery must poll on its
// own (coarse) timer.
func (q *Queue) Notify(ch chan<- struct{}) (cancel func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.watchers == nil {
		q.watchers = make(map[uint64]chan<- struct{})
	}
	q.watcherSeq++
	id := q.watcherSeq
	q.watchers[id] = ch
	return func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		delete(q.watchers, id)
	}
}

// deadLetterLocked moves one entry to the DLQ. Caller must hold q.mu and
// remove the entry from pending itself.
func (q *Queue) deadLetterLocked(e *entry, now time.Time, reason string) {
	q.deadLettered++
	q.dlq = append(q.dlq, DeadLetter{
		Seq: e.seq, Attempts: e.attempts, Event: e.ev, At: now, Reason: reason,
	})
}

// Fetch leases up to max events to a consumer, in sequence order. Only a
// contiguous prefix of eligible events is returned: an entry still under
// lease (or in backoff) blocks everything behind it, which is what keeps
// redeliveries in order. Each returned event's attempt counter is
// incremented and its lease set to now + AckTimeout + jittered
// exponential backoff. Entries that already exhausted MaxAttempts are
// moved to the dead-letter queue and the fetch continues past them.
func (q *Queue) Fetch(max int, now time.Time) []Delivered {
	out := q.FetchInto(nil, max, now)
	if len(out) == 0 {
		return nil
	}
	return out
}

// FetchInto is Fetch appending into dst, so a hot consumer path (the
// stream pusher) can reuse one buffer across fetches instead of
// allocating a fresh slice per cycle. Semantics are identical to Fetch;
// max bounds the events appended by this call, not len(dst)+new.
func (q *Queue) FetchInto(dst []Delivered, max int, now time.Time) []Delivered {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 {
		max = len(q.pending)
	}
	out := dst
	start := len(dst)
	keep := q.pending[:0]
	blocked := false
	for _, e := range q.pending {
		if blocked || len(out)-start >= max {
			keep = append(keep, e)
			continue
		}
		if !e.nextAt.IsZero() && e.nextAt.After(now) {
			// Head-of-line entry still leased or backing off: stop here so
			// later events are not delivered out of order ahead of it.
			blocked = true
			keep = append(keep, e)
			continue
		}
		if e.attempts >= q.cfg.MaxAttempts {
			q.deadLetterLocked(e, now, ReasonMaxAttempts)
			continue
		}
		e.attempts++
		if e.attempts > 1 {
			q.redeliveries++
			if e.nacked {
				e.nacked = false
			} else {
				// Redelivered without the consumer asking: the previous
				// delivery's ack lease ran out.
				q.leaseExpiries++
			}
		}
		e.nextAt = now.Add(q.cfg.AckTimeout + q.backoffLocked(e.attempts))
		out = append(out, Delivered{Seq: e.seq, Attempts: e.attempts, Event: e.ev})
		keep = append(keep, e)
	}
	// Zero the dropped tail so dead-lettered entries do not pin memory.
	for i := len(keep); i < len(q.pending); i++ {
		q.pending[i] = nil
	}
	q.pending = keep
	return out
}

// backoffLocked computes the jittered exponential backoff for the given
// attempt count (1 for the first delivery, which gets the base).
func (q *Queue) backoffLocked(attempts int) time.Duration {
	d := q.cfg.BackoffBase
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= q.cfg.BackoffMax {
			d = q.cfg.BackoffMax
			break
		}
	}
	return q.cfg.Jitter(d)
}

// Ack advances the cumulative cursor to seq: every retained event at or
// below it is done. Acking at or below the current cursor is a no-op
// (acks are idempotent); acking beyond the last delivered sequence is an
// error wrapping ErrSeqBeyondDelivered.
func (q *Queue) Ack(seq int64, now time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if seq > q.nextSeq {
		return fmt.Errorf("%w: ack %d, last delivered %d", ErrSeqBeyondDelivered, seq, q.nextSeq)
	}
	if seq <= q.acked {
		return nil
	}
	q.acked = seq
	keep := q.pending[:0]
	for _, e := range q.pending {
		if e.seq <= seq {
			q.ackedCount++
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(q.pending); i++ {
		q.pending[i] = nil
	}
	q.pending = keep
	// Events appended while the acked head was leased could not be
	// fetched past it; the cursor moving is what makes them eligible.
	if len(keep) > 0 {
		q.signalLocked()
	}
	return nil
}

// Nack makes every leased event at or below seq immediately eligible for
// redelivery after its backoff (skipping the remainder of its ack
// lease). It is in-memory only — the consumer is telling the server to
// hurry, not changing durable state.
func (q *Queue) Nack(seq int64, now time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if seq > q.nextSeq {
		return fmt.Errorf("%w: nack %d, last delivered %d", ErrSeqBeyondDelivered, seq, q.nextSeq)
	}
	for _, e := range q.pending {
		if e.seq > seq {
			break
		}
		if e.attempts > 0 {
			e.nextAt = now.Add(q.backoffLocked(e.attempts))
			e.nacked = true
		}
	}
	return nil
}

// RestoreAcked seeds the cursor during recovery and when a replicated
// cursor ack arrives from a peer. The retained window is not durable,
// so after recovery the sequence counter resumes from the cursor; on a
// live replica, however, the queue may still retain events at or below
// the cursor (buffered by its own publish fan-out) — those are done on
// the primary and must be dropped here too, or a failover would
// redeliver them.
func (q *Queue) RestoreAcked(seq int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if seq > q.acked {
		q.acked = seq
	}
	if q.acked > q.nextSeq {
		q.nextSeq = q.acked
	}
	keep := q.pending[:0]
	for _, e := range q.pending {
		if e.seq <= q.acked {
			q.ackedCount++
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(q.pending); i++ {
		q.pending[i] = nil
	}
	q.pending = keep
}

// Acked returns the cumulative cursor.
func (q *Queue) Acked() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.acked
}

// DeadLetters snapshots the dead-letter queue without consuming it.
func (q *Queue) DeadLetters() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DeadLetter, len(q.dlq))
	copy(out, q.dlq)
	return out
}

// Drain removes and returns the dead-letter queue.
func (q *Queue) Drain() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.dlq
	q.dlq = nil
	return out
}

// Retained reports how many events are currently retained (unacked).
func (q *Queue) Retained() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Cursor is one subscription's durable position, exported for snapshot
// capture.
type Cursor struct {
	User  string
	ID    string
	Acked int64
}

// Totals aggregates counters across a Set for stats reporting.
type Totals struct {
	Queues        int
	Retained      int
	DeadLetters   int
	Appended      int64
	Acked         int64
	Redeliveries  int64
	DeadLettered  int64
	LeaseExpiries int64
}

// Set is the engine-side registry of reliable queues, keyed by
// (user, subscription ID). Safe for concurrent use.
type Set struct {
	mu     sync.Mutex
	byUser map[string]map[string]*Queue
}

// NewSet builds an empty registry.
func NewSet() *Set {
	return &Set{byUser: make(map[string]map[string]*Queue)}
}

// Register creates (or returns the existing) queue for a subscription.
// Re-registering keeps the original configuration, mirroring how a
// duplicate subscribe keeps the original subscription.
func (s *Set) Register(user, id string, cfg Config) *Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byUser[user]
	if m == nil {
		m = make(map[string]*Queue)
		s.byUser[user] = m
	}
	if q, ok := m[id]; ok {
		return q
	}
	q := NewQueue(cfg)
	m[id] = q
	return q
}

// Remove drops a subscription's queue (unsubscribe).
func (s *Set) Remove(user, id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byUser[user]
	delete(m, id)
	if len(m) == 0 {
		delete(s.byUser, user)
	}
}

// Get returns a subscription's queue, if it has one.
func (s *Set) Get(user, id string) (*Queue, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.byUser[user][id]
	return q, ok
}

// User returns every queue of one user, keyed by subscription ID in
// sorted order (for aggregate dead-letter inspection).
func (s *Set) User(user string) map[string]*Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byUser[user]
	out := make(map[string]*Queue, len(m))
	for id, q := range m {
		out[id] = q
	}
	return out
}

// Cursors exports every queue's cursor sorted by (user, id), so snapshot
// capture is deterministic.
func (s *Set) Cursors() []Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Cursor
	for user, m := range s.byUser {
		for id, q := range m {
			out = append(out, Cursor{User: user, ID: id, Acked: q.Acked()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Totals aggregates every queue's counters.
func (s *Set) Totals() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t Totals
	for _, m := range s.byUser {
		for _, q := range m {
			q.mu.Lock()
			t.Queues++
			t.Retained += len(q.pending)
			t.DeadLetters += len(q.dlq)
			t.Appended += q.appended
			t.Acked += q.ackedCount
			t.Redeliveries += q.redeliveries
			t.DeadLettered += q.deadLettered
			t.LeaseExpiries += q.leaseExpiries
			q.mu.Unlock()
		}
	}
	return t
}
