package delivery

import (
	"errors"
	"testing"
	"time"

	"reef/internal/pubsub"
)

// noJitter makes backoff deterministic for tests.
func noJitter(d time.Duration) time.Duration { return d }

func testQueue(cfg Config) *Queue {
	if cfg.Jitter == nil {
		cfg.Jitter = noJitter
	}
	return NewQueue(cfg)
}

func ev(n int) pubsub.Event {
	return pubsub.Event{ID: uint64(n)}
}

func seqs(ds []Delivered) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.Seq
	}
	return out
}

func TestFetchAckOrder(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Second, MaxAttempts: 3})
	for i := 1; i <= 5; i++ {
		q.Append(ev(i), now)
	}
	got := q.Fetch(3, now)
	if want := []int64{1, 2, 3}; len(got) != 3 || got[0].Seq != want[0] || got[2].Seq != want[2] {
		t.Fatalf("first fetch = %v, want %v", seqs(got), want)
	}
	for _, d := range got {
		if d.Attempts != 1 {
			t.Fatalf("seq %d attempts = %d, want 1", d.Seq, d.Attempts)
		}
	}
	// 1-3 are leased: the head of line blocks 4-5 until the lease expires.
	if more := q.Fetch(10, now); len(more) != 0 {
		t.Fatalf("fetch under lease delivered %v, want none", seqs(more))
	}
	if err := q.Ack(3, now); err != nil {
		t.Fatalf("ack: %v", err)
	}
	got = q.Fetch(10, now)
	if want := []int64{4, 5}; len(got) != 2 || got[0].Seq != want[0] || got[1].Seq != want[1] {
		t.Fatalf("post-ack fetch = %v, want %v", seqs(got), want)
	}
	if q.Acked() != 3 {
		t.Fatalf("cursor = %d, want 3", q.Acked())
	}
}

func TestAckIdempotentAndBounds(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{})
	q.Append(ev(1), now)
	q.Fetch(1, now)
	if err := q.Ack(1, now); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if err := q.Ack(1, now); err != nil {
		t.Fatalf("duplicate ack: %v", err)
	}
	if err := q.Ack(0, now); err != nil {
		t.Fatalf("stale ack: %v", err)
	}
	if err := q.Ack(99, now); !errors.Is(err, ErrSeqBeyondDelivered) {
		t.Fatalf("ack beyond delivered = %v, want ErrSeqBeyondDelivered", err)
	}
	if err := q.Nack(99, now); !errors.Is(err, ErrSeqBeyondDelivered) {
		t.Fatalf("nack beyond delivered = %v, want ErrSeqBeyondDelivered", err)
	}
}

func TestRedeliveryAfterLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Second, BackoffBase: time.Second, MaxAttempts: 5})
	q.Append(ev(1), now)
	first := q.Fetch(1, now)
	if len(first) != 1 {
		t.Fatal("no first delivery")
	}
	// Lease = 1s timeout + 1s backoff(base). Not yet expired:
	if got := q.Fetch(1, now.Add(1500*time.Millisecond)); len(got) != 0 {
		t.Fatalf("fetch before lease expiry delivered %v", seqs(got))
	}
	got := q.Fetch(1, now.Add(2100*time.Millisecond))
	if len(got) != 1 || got[0].Attempts != 2 {
		t.Fatalf("redelivery = %+v, want one event with attempts=2", got)
	}
}

func TestNackSkipsLease(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Hour, BackoffBase: time.Second, MaxAttempts: 5})
	q.Append(ev(1), now)
	q.Fetch(1, now)
	if err := q.Nack(1, now); err != nil {
		t.Fatalf("nack: %v", err)
	}
	// After nack the event waits only its backoff (1s), not the 1h lease.
	got := q.Fetch(1, now.Add(1100*time.Millisecond))
	if len(got) != 1 || got[0].Attempts != 2 {
		t.Fatalf("post-nack fetch = %+v, want redelivery with attempts=2", got)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	q := testQueue(Config{BackoffBase: time.Second, BackoffMax: 4 * time.Second})
	cases := []struct {
		attempts int
		want     time.Duration
	}{
		{1, time.Second}, {2, 2 * time.Second}, {3, 4 * time.Second}, {4, 4 * time.Second}, {10, 4 * time.Second},
	}
	for _, c := range cases {
		if got := q.backoffLocked(c.attempts); got != c.want {
			t.Fatalf("backoff(%d) = %v, want %v", c.attempts, got, c.want)
		}
	}
}

func TestMaxAttemptsDeadLetters(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, MaxAttempts: 2})
	q.Append(ev(1), now)
	q.Append(ev(2), now)
	for i := 0; i < 2; i++ {
		got := q.Fetch(10, now)
		if len(got) != 2 {
			t.Fatalf("attempt %d delivered %v", i+1, seqs(got))
		}
		now = now.Add(time.Second) // expire lease + backoff
	}
	// Third fetch: both entries exhausted their 2 attempts -> DLQ.
	if got := q.Fetch(10, now); len(got) != 0 {
		t.Fatalf("exhausted fetch delivered %v", seqs(got))
	}
	dl := q.DeadLetters()
	if len(dl) != 2 || dl[0].Reason != ReasonMaxAttempts || dl[0].Attempts != 2 {
		t.Fatalf("dead letters = %+v, want 2 max-attempts entries", dl)
	}
	if q.Retained() != 0 {
		t.Fatalf("retained = %d after dead-lettering", q.Retained())
	}
	drained := q.Drain()
	if len(drained) != 2 || len(q.DeadLetters()) != 0 {
		t.Fatalf("drain returned %d, left %d", len(drained), len(q.DeadLetters()))
	}
}

func TestCapacityOverflowDeadLetters(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{Capacity: 3})
	for i := 1; i <= 5; i++ {
		q.Append(ev(i), now)
	}
	if q.Retained() != 3 {
		t.Fatalf("retained = %d, want 3", q.Retained())
	}
	dl := q.DeadLetters()
	if len(dl) != 2 || dl[0].Seq != 1 || dl[1].Seq != 2 || dl[0].Reason != ReasonOverflow {
		t.Fatalf("overflow DLQ = %+v, want seqs 1,2 with reason overflow", dl)
	}
	// The retained window starts at 3 now.
	if got := q.Fetch(1, now); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("fetch after overflow = %v, want [3]", seqs(got))
	}
}

func TestRestoreAcked(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{})
	q.RestoreAcked(7)
	if q.Acked() != 7 {
		t.Fatalf("cursor = %d, want 7", q.Acked())
	}
	// Sequence numbering resumes after the cursor.
	if seq := q.Append(ev(1), now); seq != 8 {
		t.Fatalf("post-restore append seq = %d, want 8", seq)
	}
	q.RestoreAcked(3) // regressions ignored
	if q.Acked() != 7 {
		t.Fatalf("cursor regressed to %d", q.Acked())
	}
}

// TestRestoreAckedDropsRetained pins the live-replica shape: a
// replicated cursor ack lands on a queue that still retains the acked
// events (buffered by the replica's own publish fan-out) and must drop
// them, or a failover would redeliver work the primary already
// completed.
func TestRestoreAckedDropsRetained(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{})
	for i := 1; i <= 3; i++ {
		q.Append(ev(i), now)
	}
	q.RestoreAcked(2)
	if got := q.Fetch(0, now); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("fetch after replicated ack = %v, want [3]", seqs(got))
	}
	if got := q.Retained(); got != 1 {
		t.Fatalf("retained after replicated ack = %d, want 1", got)
	}
}

func TestSetRegisterCursorsTotals(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewSet()
	qa := s.Register("bob", "http://a", Config{MaxAttempts: 9})
	if again := s.Register("bob", "http://a", Config{MaxAttempts: 1}); again != qa {
		t.Fatal("re-register replaced the queue")
	}
	if qa.Config().MaxAttempts != 9 {
		t.Fatalf("re-register changed config: %+v", qa.Config())
	}
	s.Register("alice", "http://b", Config{})
	qa.Append(ev(1), now)
	qa.Fetch(1, now)
	if err := qa.Ack(1, now); err != nil {
		t.Fatal(err)
	}
	cur := s.Cursors()
	if len(cur) != 2 || cur[0].User != "alice" || cur[1].User != "bob" || cur[1].Acked != 1 {
		t.Fatalf("cursors = %+v", cur)
	}
	tot := s.Totals()
	if tot.Queues != 2 || tot.Appended != 1 || tot.Acked != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	s.Remove("bob", "http://a")
	if _, ok := s.Get("bob", "http://a"); ok {
		t.Fatal("queue survived Remove")
	}
	if len(s.User("alice")) != 1 {
		t.Fatal("User(alice) lost its queue")
	}
}

// TestNotifySignalsOnAppend pins the push hook: Append signals every
// registered watcher exactly edge-wise (non-blocking against a full
// channel), and cancel unregisters.
func TestNotifySignalsOnAppend(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Second, MaxAttempts: 3})

	a := make(chan struct{}, 1)
	b := make(chan struct{}, 1)
	cancelA := q.Notify(a)
	cancelB := q.Notify(b)

	q.Append(ev(1), now)
	select {
	case <-a:
	default:
		t.Fatal("watcher a not signalled by Append")
	}
	select {
	case <-b:
	default:
		t.Fatal("watcher b not signalled by Append")
	}

	// A full watcher channel must not block Append: the signal is an
	// edge, coalescing is the watcher's job.
	a <- struct{}{}
	q.Append(ev(2), now)
	if len(a) != 1 {
		t.Fatalf("full watcher channel grew to %d pending signals", len(a))
	}
	<-b // drain the second edge

	cancelA()
	cancelA() // cancel is idempotent
	q.Append(ev(3), now)
	<-a // only the stale pre-cancel signal remains
	select {
	case <-a:
		t.Fatal("cancelled watcher a still signalled")
	default:
	}
	select {
	case <-b:
	default:
		t.Fatal("watcher b lost its signal after a's cancel")
	}
	cancelB()
}

// TestNotifySignalsOnAckBehindLease pins that an Ack which leaves events
// retained wakes the watchers: an event appended while the head was
// leased could not be fetched when its Append signalled, and the cursor
// moving past the head is what makes it eligible. An Ack that empties
// the queue has nothing to announce.
func TestNotifySignalsOnAckBehindLease(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Minute, MaxAttempts: 3})
	w := make(chan struct{}, 1)
	defer q.Notify(w)()

	q.Append(ev(1), now)
	<-w
	if got := q.Fetch(10, now); len(got) != 1 {
		t.Fatalf("fetch = %v, want [1]", seqs(got))
	}
	q.Append(ev(2), now)
	<-w
	if got := q.Fetch(10, now); len(got) != 0 {
		t.Fatalf("fetch behind the leased head = %v, want none", seqs(got))
	}
	if err := q.Ack(1, now); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w:
	default:
		t.Fatal("Ack that unblocked a retained event did not signal the watcher")
	}
	if got := q.Fetch(10, now); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("fetch after the ack = %v, want [2]", seqs(got))
	}
	if err := q.Ack(2, now); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w:
		t.Fatal("Ack that emptied the queue signalled the watcher")
	default:
	}
}

// TestFetchIntoReusesBuffer pins the pooled fetch path: FetchInto
// appends onto dst, max bounds only the newly appended events, and a
// recycled buffer serves the next fetch without reallocating.
func TestFetchIntoReusesBuffer(t *testing.T) {
	now := time.Unix(1000, 0)
	q := testQueue(Config{AckTimeout: time.Second, MaxAttempts: 3})
	for i := 1; i <= 6; i++ {
		q.Append(ev(i), now)
	}

	buf := make([]Delivered, 0, 8)
	buf = append(buf, Delivered{Seq: -7}) // pre-existing element survives
	out := q.FetchInto(buf, 2, now)
	if want := []int64{-7, 1, 2}; len(out) != 3 || out[0].Seq != want[0] || out[1].Seq != want[1] || out[2].Seq != want[2] {
		t.Fatalf("FetchInto = %v, want %v", seqs(out), want)
	}
	if &out[0] != &buf[0] {
		t.Fatal("FetchInto reallocated despite sufficient capacity")
	}
	if err := q.Ack(2, now); err != nil {
		t.Fatal(err)
	}

	// Reuse the same backing array for the next cycle.
	out = q.FetchInto(out[:0], 10, now)
	if want := []int64{3, 4, 5, 6}; len(out) != 4 || out[0].Seq != want[0] || out[3].Seq != want[3] {
		t.Fatalf("second FetchInto = %v, want %v", seqs(out), want)
	}
	if err := q.Ack(6, now); err != nil {
		t.Fatal(err)
	}
	if got := q.FetchInto(out[:0], 10, now); len(got) != 0 {
		t.Fatalf("drained queue fetched %v", seqs(got))
	}
}

// TestLeaseExpiryAttribution pins the redelivery split behind the
// reef_delivery_lease_expiries_total metric: a redelivery the consumer
// asked for (nack) counts only as a redelivery, while a silent lease
// timeout also counts as a lease expiry.
func TestLeaseExpiryAttribution(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewSet()
	q := s.Register("bob", "http://a", Config{AckTimeout: time.Second, MaxAttempts: 5, BackoffBase: 0})

	q.Append(ev(1), now)
	if got := q.Fetch(0, now); len(got) != 1 {
		t.Fatalf("first fetch = %v, want [1]", seqs(got))
	}
	if tot := s.Totals(); tot.Redeliveries != 0 || tot.LeaseExpiries != 0 {
		t.Fatalf("totals after first delivery = %+v, want no redeliveries", tot)
	}

	// Consumer-requested redelivery: redelivery counted, no expiry. The
	// fetch time only has to clear the nack backoff — attribution rides
	// on the nack itself, not on when redelivery happens.
	if err := q.Nack(1, now); err != nil {
		t.Fatal(err)
	}
	afterBackoff := now.Add(time.Minute)
	if got := q.Fetch(0, afterBackoff); len(got) != 1 || got[0].Attempts != 2 {
		t.Fatalf("post-nack fetch = %v, want attempt 2", got)
	}
	if tot := s.Totals(); tot.Redeliveries != 1 || tot.LeaseExpiries != 0 {
		t.Fatalf("totals after nack redelivery = %+v, want 1 redelivery, 0 expiries", tot)
	}

	// Silent timeout: the lease runs out without an ack or nack, and the
	// next fetch is attributed to a lease expiry.
	later := afterBackoff.Add(10 * time.Minute)
	if got := q.Fetch(0, later); len(got) != 1 || got[0].Attempts != 3 {
		t.Fatalf("post-expiry fetch = %v, want attempt 3", got)
	}
	if tot := s.Totals(); tot.Redeliveries != 2 || tot.LeaseExpiries != 1 {
		t.Fatalf("totals after lease expiry = %+v, want 2 redeliveries, 1 expiry", tot)
	}
}
