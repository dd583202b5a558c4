package reefstream

import (
	"context"
	"sync"
	"time"

	"reef"
	"reef/internal/delivery"
)

// DefaultCreditWindow is the credit a consumer session extends to the
// server on attach: the server may have this many delivered-but-not-yet
// -consumed events in flight toward the client. FetchEvents replenishes
// exactly what it hands to the application, so the window is conserved.
const DefaultCreditWindow = MaxFrameEvents

// clientConsumer is one attached (user, subID) session on one
// connection: the buffer the read loop pushes deliveries into and the
// ready channel FetchEvents sleeps on.
type clientConsumer struct {
	cid uint64

	mu  sync.Mutex
	buf []reef.DeliveredEvent

	ready chan struct{} // 1-buffered edge trigger: buf went non-empty
}

// pop removes up to max buffered events (all of them when max <= 0).
func (cc *clientConsumer) pop(max int) []reef.DeliveredEvent {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := len(cc.buf)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]reef.DeliveredEvent, n)
	copy(out, cc.buf)
	rem := copy(cc.buf, cc.buf[n:])
	for i := rem; i < len(cc.buf); i++ {
		cc.buf[i] = reef.DeliveredEvent{}
	}
	cc.buf = cc.buf[:rem]
	return out
}

// dispatchDeliver hands one pushed batch to its consumer session, in
// the public form the application fetches. An unknown consumer ID means
// the session raced detachment; the dropped events redeliver after
// their lease, so dropping here is safe.
func (sc *streamConn) dispatchDeliver(cid uint64, ds []delivery.Delivered) {
	if len(ds) == 0 {
		return
	}
	sc.cmu.Lock()
	cc := sc.byCID[cid]
	sc.cmu.Unlock()
	if cc == nil {
		return
	}
	cc.mu.Lock()
	for _, d := range ds {
		cc.buf = append(cc.buf, reef.DeliveredEvent{Seq: d.Seq, Attempts: d.Attempts, Event: publicEvent(d.Event)})
	}
	cc.mu.Unlock()
	select {
	case cc.ready <- struct{}{}:
	default:
	}
}

// consumer returns the session for (user, subID), attaching one over
// the wire if this connection has none yet. Attach is single-flighted
// per connection; the session registers before the subscribe round trip
// so a push racing the subscribe ack is not dropped.
func (sc *streamConn) consumer(ctx context.Context, user, subID string) (*clientConsumer, error) {
	key := user + "\x00" + subID
	sc.cmu.Lock()
	cc := sc.consumers[key]
	sc.cmu.Unlock()
	if cc != nil {
		return cc, nil
	}
	sc.attachMu.Lock()
	defer sc.attachMu.Unlock()
	sc.cmu.Lock()
	if cc = sc.consumers[key]; cc != nil {
		sc.cmu.Unlock()
		return cc, nil
	}
	sc.nextCID++
	cid := sc.nextCID
	cc = &clientConsumer{cid: cid, ready: make(chan struct{}, 1)}
	sc.consumers[key] = cc
	sc.byCID[cid] = cc
	sc.cmu.Unlock()

	_, err := sc.call(ctx, func(dst []byte, seq uint64) []byte {
		return appendSubscribeFrame(dst, subscribe{Seq: seq, CID: cid, Credit: DefaultCreditWindow, User: user, SubID: subID})
	})
	if err != nil {
		sc.cmu.Lock()
		delete(sc.consumers, key)
		delete(sc.byCID, cid)
		sc.cmu.Unlock()
		return nil, err
	}
	return cc, nil
}

// FetchEvents leases up to max retained events of one reliable
// subscription over the stream. Unlike the REST fetch it does not poll:
// the server pushes events into the session's buffer the moment they
// are retained, and FetchEvents blocks — bounded by ctx or the client's
// call timeout — until something is buffered, returning an empty batch
// only when the bound expires with nothing delivered. Lease, ordering
// and redelivery semantics are the deployment's own (the push path
// calls the same queue Fetch the REST endpoint does).
//
// A connection failure mid-wait is retried once on a fresh connection;
// after a redial the session re-attaches transparently and the unacked
// window redelivers under its lease.
func (c *Client) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	var evs []reef.DeliveredEvent
	err := c.retryOnce(ctx, func(sc *streamConn) error {
		cc, err := sc.consumer(ctx, user, subID)
		if err != nil {
			return err
		}
		var bound <-chan time.Time
		if ctx.Done() == nil && c.callTimeout > 0 {
			t := time.NewTimer(c.callTimeout)
			defer t.Stop()
			bound = t.C
		}
		for {
			if evs = cc.pop(max); len(evs) > 0 {
				// Grant back the credit handed to the application, fire
				// and forget.
				fp := framePool.Get().(*[]byte)
				*fp = appendCreditFrame((*fp)[:0], credit{CID: cc.cid, N: uint64(len(evs))})
				if sc.conn.Send(context.Background(), fp) != nil {
					framePool.Put(fp)
				}
				return nil
			}
			select {
			case <-cc.ready:
			case <-sc.conn.Done():
				return sc.conn.Err()
			case <-ctx.Done():
				return ctx.Err()
			case <-bound:
				return nil
			}
		}
	})
	return evs, err
}

// Ack advances the subscription's durable cumulative cursor (or, with
// nack set, requests immediate redelivery) over the stream. Acks share
// the pipelined sequence space with publishes, so a consumer can ack
// while deliveries keep flowing. Like FetchEvents it retries a
// connection failure once; acks are cumulative and idempotent.
func (c *Client) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	return c.retryOnce(ctx, func(sc *streamConn) error {
		cc, err := sc.consumer(ctx, user, subID)
		if err == nil {
			_, err = sc.call(ctx, func(dst []byte, callSeq uint64) []byte {
				return appendConsumeAckFrame(dst, consumeAck{Seq: callSeq, CID: cc.cid, AckSeq: seq, Nack: nack})
			})
		}
		return err
	})
}
