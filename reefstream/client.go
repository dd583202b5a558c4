package reefstream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"reef"
	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/eventalg"
	"reef/internal/metrics"
	"reef/internal/trace"
	"reef/internal/upgrade"
)

// Client publishes events over one long-lived stream connection. It is
// safe for concurrent use: callers pipeline publish frames onto the
// shared connection without waiting for each other's acks, a writer
// goroutine batches their frames into single flushes, and a reader
// goroutine matches acks back to callers by sequence number. A dead
// connection is redialed lazily (single-flight) on the next publish.
type Client struct {
	addr        string
	expectNode  string
	callTimeout time.Duration

	metrics *metrics.Registry
	mAckRTT *metrics.Histogram

	mu   sync.Mutex // held across a dial, which single-flights it
	conn *streamConn
	// ctx ends when the client closes, aborting a dial under way.
	ctx    context.Context
	cancel context.CancelFunc
}

// ClientOption configures a stream client.
type ClientOption func(*Client)

// WithExpectNode makes the client verify the node identity the server
// reports in its handshake, refusing the connection on mismatch — the
// stream-plane analogue of the cluster prober's /healthz identity check.
func WithExpectNode(id string) ClientOption {
	return func(c *Client) { c.expectNode = id }
}

// WithCallTimeout bounds one publish round trip when the caller's
// context has no deadline of its own (default 10s).
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.callTimeout = d }
}

// WithClientMetrics reports the client's ack round-trip latency
// histogram into a shared registry (the cluster router passes its own,
// so one scrape covers every node's publish leg). Without it the
// client keeps a private registry, readable via Metrics.
func WithClientMetrics(r *metrics.Registry) ClientOption {
	return func(c *Client) { c.metrics = r }
}

// NewClient creates a stream client for addr: a node's base URL
// (http://host:port) or a Listen server's host:port. No connection is
// made until the first call.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		addr:        strings.TrimRight(addr, "/"),
		callTimeout: 10 * time.Second,
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(c)
	}
	if c.metrics == nil {
		c.metrics = metrics.NewRegistry()
	}
	c.mAckRTT = c.metrics.Histogram(metrics.StreamAckSeconds.Name)
	return c
}

// Metrics returns the client's instrumentation registry.
func (c *Client) Metrics() *metrics.Registry { return c.metrics }

// Addr reports the base URL or address the client dials.
func (c *Client) Addr() string { return c.addr }

// payloadPool recycles publish and clicks payload encode buffers. Safe
// because call copies the payload into its own frame buffer before
// queueing it, so the payload is unreferenced once call returns.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// PublishEvent publishes one event and returns its delivered count.
func (c *Client) PublishEvent(ctx context.Context, ev reef.Event) (int, error) {
	pp := payloadPool.Get().(*[]byte)
	buf := binary.AppendUvarint((*pp)[:0], 1)
	buf = AppendEvent(buf, ev)
	delivered, err := c.publishPayload(ctx, buf)
	*pp = buf
	payloadPool.Put(pp)
	return delivered, err
}

// PublishBatch publishes a batch, splitting it into frames of at most
// MaxFrameEvents. It returns the total delivered count; on error the
// count covers the frames that were acked before the failure.
func (c *Client) PublishBatch(ctx context.Context, evs []reef.Event) (int, error) {
	pp := payloadPool.Get().(*[]byte)
	defer payloadPool.Put(pp)
	total := 0
	for len(evs) > 0 {
		n := len(evs)
		if n > MaxFrameEvents {
			n = MaxFrameEvents
		}
		buf := AppendEvents((*pp)[:0], evs[:n])
		delivered, err := c.publishPayload(ctx, buf)
		*pp = buf
		total += delivered
		if err != nil {
			return total, err
		}
		evs = evs[n:]
	}
	return total, nil
}

// publishPayload ships an EncodeEvents payload as one publish frame
// and waits for its ack, through retryOnce.
func (c *Client) publishPayload(ctx context.Context, payload []byte) (int, error) {
	var delivered int
	err := c.retryOnce(ctx, func(sc *streamConn) error {
		begin := time.Now()
		// A trace ID carried by ctx rides the frame's optional trailing
		// field, stitching the publish into the server's span ring.
		a, err := sc.call(ctx, func(dst []byte, seq uint64) []byte {
			tr, _ := trace.FromContext(ctx)
			return appendPublishFrame(dst, seq, payload, tr)
		})
		if delivered = int(a.Delivered); err == nil {
			c.mAckRTT.Observe(time.Since(begin).Seconds())
		}
		return err
	})
	return delivered, err
}

// retryOnce runs call on the live connection. A connection-level
// failure, which closed the connection, runs call once more on a fresh
// one; a server verdict (StatusError), a timeout or the caller's ctx
// ending is returned as is.
func (c *Client) retryOnce(ctx context.Context, call func(*streamConn) error) error {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var sc *streamConn
		if sc, err = c.getConn(ctx); err != nil {
			return err
		}
		if err = call(sc); err == nil {
			return nil
		}
		var se *StatusError
		if errors.As(err, &se) || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return fmt.Errorf("reefstream: %s: %w", c.addr, err)
}

// IngestClicks forwards a click batch to the server's deployment in
// clicks frames of at most MaxFrameEvents clicks, and returns how many
// clicks the server accepted. Clicks are not idempotent, so unlike a
// publish it never re-sends a frame: once a frame is queued, a
// dead connection is an error, and the count covers the frames acked
// before it.
func (c *Client) IngestClicks(ctx context.Context, clicks []reef.Click) (int, error) {
	if len(clicks) == 0 {
		return 0, nil
	}
	sc, err := c.getConn(ctx)
	if err != nil {
		return 0, err
	}
	pp := payloadPool.Get().(*[]byte)
	defer payloadPool.Put(pp)
	total := 0
	for len(clicks) > 0 {
		n := min(len(clicks), MaxFrameEvents)
		buf := durable.AppendClicks((*pp)[:0], clicks[:n])
		*pp = buf
		// A frame the server cannot read would kill the connection
		// after the frames before it landed; refuse it unsent instead.
		if 2+8+len(buf) > durable.MaxRecordLen { // version + op + seq + payload
			return total, fmt.Errorf("%w: %d clicks encode to %d bytes, over the frame limit", reef.ErrInvalidArgument, n, len(buf))
		}
		a, err := sc.call(ctx, func(dst []byte, seq uint64) []byte { return appendClicksFrame(dst, seq, buf) })
		total += int(a.Delivered)
		if err != nil {
			return total, err
		}
		clicks = clicks[n:]
	}
	return total, nil
}

// Close closes the client and its connection. Further publishes return
// reef.ErrClosed.
func (c *Client) Close() error {
	c.cancel() // first: a dial under way holds mu
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.conn.CloseWithError(reef.ErrClosed)
	}
	return nil
}

// getConn returns the live connection, dialing one if needed. Concurrent
// callers wait for the dialer rather than piling on.
func (c *Client) getConn(ctx context.Context) (*streamConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.ctx.Err() != nil:
		return nil, reef.ErrClosed
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case c.conn != nil && c.conn.conn.Err() == nil:
		return c.conn, nil
	}
	sc, err := c.dial()
	switch {
	case c.ctx.Err() != nil: // closed during the dial
		if sc != nil {
			sc.conn.CloseWithError(reef.ErrClosed)
		}
		return nil, reef.ErrClosed
	case err != nil:
		return nil, err
	}
	c.conn = sc
	return sc, nil
}

// dialTimeout bounds the dial and the hellos together.
const dialTimeout = 5 * time.Second

// dial opens the stream: by upgrade from a base URL, by TCP to a
// host:port, with the hellos either way. A node that answers the upgrade
// with 404 or 426 does not serve the stream: its StatusUnsupported
// verdict. One that answers 5xx (503 while it replays its WAL) is
// unavailable. Any other refusal is a dial error.
func (c *Client) dial() (*streamConn, error) {
	conn, err := upgrade.Open(c.ctx, http.DefaultTransport, c.addr, upgrade.Hello{}, c.expectNode, dialTimeout)
	if re := (*upgrade.RefusedError)(nil); errors.As(err, &re) {
		msg := fmt.Sprintf("node %q at %s", c.expectNode, re.Msg)
		switch {
		case re.Code == http.StatusNotFound || re.Code == http.StatusUpgradeRequired:
			return nil, &StatusError{Status: StatusUnsupported, Message: msg}
		case re.Code >= 500:
			return nil, &StatusError{Status: StatusUnavailable, Message: msg}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reefstream: dial %s: %w", c.addr, err)
	}
	sc := &streamConn{
		waiters:   make(map[uint64]chan ack),
		consumers: make(map[string]*clientConsumer),
		byCID:     make(map[uint64]*clientConsumer),
	}
	sc.conn = upgrade.Start(conn, upgrade.Role{
		Dispatch: sc.dispatch, Owed: sc.owed, Closed: sc.closed, Pool: &framePool,
		ReadBuf: 256 << 10, WriteBuf: 64 << 10, Timeout: c.callTimeout,
	})
	return sc, nil
}

// streamConn is one handshaken connection in the stream client's role:
// per-sequence ack waiters and consumer sessions over an upgrade.Conn.
type streamConn struct {
	conn *upgrade.Conn

	wmu     sync.Mutex
	nextSeq uint64
	waiters map[uint64]chan ack // nil once the connection closed

	// Consumer sessions (the read side of the data plane). attachMu
	// single-flights session creation per (user, subID); cmu guards the
	// maps shared with the reader's deliver dispatch. Sessions die
	// with the connection and re-attach lazily after a redial — the
	// delivery queue's leases make the re-sent window safe.
	attachMu  sync.Mutex
	cmu       sync.Mutex
	nextCID   uint64
	consumers map[string]*clientConsumer // keyed user + "\x00" + subID
	byCID     map[uint64]*clientConsumer

	// The reader's scratch for deliver frames.
	ds    []delivery.Delivered
	pairs []eventalg.Attr
}

// owed reports whether a call awaits its ack: the stream is FIFO, so a
// connection that owes one and reads nothing for a call timeout is stuck.
func (sc *streamConn) owed() bool {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return len(sc.waiters) > 0
}

// closed fails every waiter, so no caller hangs on an ack that will
// never come. Waiters are failed with a connDead ack rather than a close
// so their channels stay poolable.
func (sc *streamConn) closed(error) {
	sc.wmu.Lock()
	waiters := sc.waiters
	sc.waiters = nil
	sc.wmu.Unlock()
	for _, ch := range waiters {
		// Guaranteed room: a channel still registered has no pending
		// send (dispatch deletes before sending).
		ch <- ack{connDead: true}
	}
}

// framePool recycles frame buffers: call fills one, the connection's
// writer hands it back once the bytes are on the wire.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// waiterPool recycles ack waiter channels. A channel is pooled only
// after its owner received from it (buffer empty again); abandoned
// waiters — context cancellation racing a late ack — are left to the
// garbage collector.
var waiterPool = sync.Pool{New: func() any { return make(chan ack, 1) }}

// dispatch handles one frame from the server: an ack goes to its
// waiter, a pushed delivery to its consumer session.
func (sc *streamConn) dispatch(rec durable.Record) error {
	switch rec.Op {
	case durable.OpStreamDeliver:
		// Buffer it on its consumer session in the public form. The
		// events' text and payloads are their own — they outlive the read
		// buffer, handed to the application by FetchEvents — while their
		// pairs are done with once converted, so one pair buffer serves
		// every frame.
		cid, batch, err := decodeDeliver(rec.Payload, sc.ds[:0], &sc.pairs)
		if err != nil {
			return err
		}
		sc.dispatchDeliver(cid, batch)
		clear(batch)
		clear(sc.pairs)
		sc.ds, sc.pairs = batch[:0], sc.pairs[:0]
		return nil
	case durable.OpStreamAck:
		a, err := decodeAck(rec.Payload)
		if err != nil {
			return err
		}
		sc.wmu.Lock()
		ch := sc.waiters[a.Seq]
		delete(sc.waiters, a.Seq)
		sc.wmu.Unlock()
		if ch != nil {
			ch <- a
		}
		return nil
	}
	return fmt.Errorf("%w: unexpected op %v from server", ErrBadFrame, rec.Op)
}

// call frames one acked verb under the next sequence number and waits
// for its ack, which it returns; a non-OK one is a StatusError too.
// Every acked verb (publish, clicks, subscribe, consume-ack) goes
// through here, so the sequence space stays shared and FIFO. The
// connection's watchdog bounds the wait when the caller's context
// cannot (closed fails every waiter), so the no-deadline hot path is a
// plain channel receive, not a select.
func (sc *streamConn) call(ctx context.Context, frame func(dst []byte, seq uint64) []byte) (ack, error) {
	sc.wmu.Lock()
	if sc.waiters == nil {
		sc.wmu.Unlock()
		return ack{}, sc.conn.Err()
	}
	sc.nextSeq++
	seq := sc.nextSeq
	waiter := waiterPool.Get().(chan ack)
	sc.waiters[seq] = waiter
	sc.wmu.Unlock()
	fp := framePool.Get().(*[]byte)
	*fp = frame((*fp)[:0], seq)
	if err := sc.conn.Send(ctx, fp); err != nil {
		sc.forget(seq)
		return ack{}, err
	}
	var a ack
	if done := ctx.Done(); done == nil {
		a = <-waiter
	} else {
		select {
		case a = <-waiter:
		case <-done:
			// The abandoned channel may still receive a late ack; it is
			// dropped, not pooled.
			sc.forget(seq)
			return ack{}, ctx.Err()
		}
	}
	waiterPool.Put(waiter)
	switch {
	case a.connDead:
		return ack{}, sc.conn.Err()
	case a.Status != StatusOK:
		return a, &StatusError{Status: a.Status, Message: a.Message}
	}
	return a, nil
}

// forget abandons a waiter (timeout, cancellation, queue failure) so a
// late ack does not leak the channel entry.
func (sc *streamConn) forget(seq uint64) {
	sc.wmu.Lock()
	delete(sc.waiters, seq) // a no-op once closed set the map nil
	sc.wmu.Unlock()
}
