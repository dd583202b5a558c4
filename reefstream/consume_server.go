package reefstream

import (
	"bufio"
	"context"
	"fmt"
	"sync"
	"time"

	"reef"
	"reef/internal/delivery"
)

// redeliverTick is the coarse fallback poll interval of a consumer
// pusher. The append notify hook wakes the pusher for new events; the
// tick only covers what the hook cannot signal — leases expiring on
// events that were pushed but never acked.
const redeliverTick = 100 * time.Millisecond

// connState is the per-connection state shared between the frame-read
// goroutine and the consumer pushers it spawns: the mutex-serialized
// writer (acks and pushed deliveries interleave on one socket) and the
// live consumer sessions keyed by client-assigned consumer ID.
type connState struct {
	s *Server

	wmu  sync.Mutex
	bw   *bufio.Writer
	werr error // sticky: first write failure poisons the connection

	cmu       sync.Mutex
	consumers map[uint64]*consumerState
	closed    bool

	pushers sync.WaitGroup
}

func newConnState(s *Server, bw *bufio.Writer) *connState {
	return &connState{s: s, bw: bw, consumers: make(map[uint64]*consumerState)}
}

// write ships one or more already-framed messages and flushes, under
// the connection write lock. Each flush is one syscall; coalescing
// happens upstream (publish acks batch per read pass, deliveries batch
// per fetch).
func (cs *connState) write(frame []byte) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	if cs.werr != nil {
		return cs.werr
	}
	if _, err := cs.bw.Write(frame); err != nil {
		cs.werr = err
		return err
	}
	if err := cs.bw.Flush(); err != nil {
		cs.werr = err
	}
	return cs.werr
}

// consumerState is one attached (user, subscription) consumer: its
// remaining credit and the wake channel its pusher sleeps on. The wake
// channel is 1-buffered and shared between the queue's append hook and
// credit grants — an edge trigger, re-checked by fetching.
type consumerState struct {
	cid   uint64
	user  string
	subID string

	mu     sync.Mutex
	credit int

	wake   chan struct{}
	done   chan struct{}
	cancel func() // unregisters the queue notify hook
}

func (c *consumerState) take(max int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.credit
	if n > max {
		n = max
	}
	c.credit -= n
	return n
}

func (c *consumerState) refund(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.credit += n
	c.mu.Unlock()
}

// attach registers a consumer session and starts its pusher. The error
// (unsupported deployment, unknown subscription, best-effort tier)
// travels back in the subscribe frame's ack.
func (cs *connState) attach(sub subscribe) error {
	if cs.s.stream == nil {
		return fmt.Errorf("%w: deployment has no streaming delivery surface", reef.ErrUnsupported)
	}
	c := &consumerState{
		cid:    sub.CID,
		user:   sub.User,
		subID:  sub.SubID,
		credit: int(sub.Credit),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	cancel, err := cs.s.stream.NotifyEvents(sub.User, sub.SubID, c.wake)
	if err != nil {
		return err
	}
	c.cancel = cancel
	cs.cmu.Lock()
	if cs.closed {
		cs.cmu.Unlock()
		cancel()
		return reef.ErrClosed
	}
	if _, dup := cs.consumers[sub.CID]; dup {
		cs.cmu.Unlock()
		cancel()
		return fmt.Errorf("%w: consumer id %d already attached", reef.ErrInvalidArgument, sub.CID)
	}
	cs.consumers[sub.CID] = c
	cs.pushers.Add(1)
	cs.cmu.Unlock()
	cs.s.mConsumers.Add(1)
	go cs.runPusher(c)
	return nil
}

// consumeAck applies one pipelined cumulative ack (or nack) for an
// attached consumer.
func (cs *connState) consumeAck(ca consumeAck) error {
	cs.cmu.Lock()
	c := cs.consumers[ca.CID]
	cs.cmu.Unlock()
	if c == nil {
		return fmt.Errorf("%w: unknown consumer id %d", reef.ErrInvalidArgument, ca.CID)
	}
	return cs.s.stream.Ack(context.Background(), c.user, c.subID, ca.AckSeq, ca.Nack)
}

// addCredit applies a fire-and-forget credit grant. An unknown consumer
// ID is ignored: credit frames race detachment by design.
func (cs *connState) addCredit(cr credit) {
	cs.cmu.Lock()
	c := cs.consumers[cr.CID]
	cs.cmu.Unlock()
	if c == nil {
		return
	}
	c.refund(int(cr.N))
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// closeConsumers tears down every session when the connection ends:
// notify hooks unregister, pushers drain. Unacked deliveries need no
// cleanup — their leases expire and they redeliver, here or on a
// promoted replica.
func (cs *connState) closeConsumers() {
	cs.cmu.Lock()
	cs.closed = true
	consumers := cs.consumers
	cs.consumers = nil
	cs.cmu.Unlock()
	for _, c := range consumers {
		c.cancel()
		close(c.done)
	}
	cs.s.mConsumers.Add(-int64(len(consumers)))
	cs.pushers.Wait()
}

// runPusher is one consumer's push loop: drain whatever credit and
// retained events allow, then sleep until the append hook or a credit
// grant wakes it (or the redelivery tick fires). It exits when the
// session closes or the connection's writer dies.
func (cs *connState) runPusher(c *consumerState) {
	defer cs.pushers.Done()
	var ds []delivery.Delivered
	var frame []byte
	tick := time.NewTicker(redeliverTick)
	defer tick.Stop()
	for {
		if !cs.push(c, &ds, &frame) {
			return
		}
		select {
		case <-c.done:
			return
		case <-c.wake:
		case <-tick.C:
		}
	}
}

// push leases up to the consumer's credit in MaxFrameEvents chunks and
// ships each chunk as one deliver frame, reusing the caller's lease and
// frame buffers across fetches: encoding a deliver frame allocates
// nothing (TestFrameEncodeAllocs pins it). Unused credit is refunded.
// Returns false when pushing must stop for good.
func (cs *connState) push(c *consumerState, ds *[]delivery.Delivered, frame *[]byte) bool {
	ctx := context.Background()
	for {
		n := c.take(MaxFrameEvents)
		if n == 0 {
			return true
		}
		batch, err := cs.s.fetch(ctx, c.user, c.subID, (*ds)[:0], n)
		*ds = batch[:0]
		if err != nil {
			// Subscription removed or deployment closing: nothing left
			// to push. The client learns via its next control call.
			c.refund(n)
			return false
		}
		if len(batch) == 0 {
			c.refund(n)
			return true
		}
		c.refund(n - len(batch))
		*frame = appendDeliverFrame((*frame)[:0], c.cid, batch)
		pushed := len(batch)
		clear(batch)
		if cs.write(*frame) != nil {
			return false
		}
		cs.s.mDelivered.Add(int64(pushed))
		cs.s.mFramesOut.Add(1)
		if len(batch) < n {
			return true
		}
	}
}

// fetch leases up to max events of one reliable subscription, appended
// to dst. A built-in engine hands over its own leased events; any other
// StreamDeliverer's are converted from reef.DeliveredEvent at this edge.
func (s *Server) fetch(ctx context.Context, user, subID string, dst []delivery.Delivered, max int) ([]delivery.Delivered, error) {
	if s.entry.Fetch != nil {
		return s.entry.Fetch(ctx, user, subID, dst, max)
	}
	pub, err := s.stream.FetchEventsInto(ctx, user, subID, nil, max)
	for _, d := range pub {
		dst = append(dst, delivery.Delivered{Seq: d.Seq, Attempts: d.Attempts, Event: internalEvent(d.Event)})
	}
	return dst, err
}
