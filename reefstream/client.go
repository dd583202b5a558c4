package reefstream

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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

	mu      sync.Mutex
	cond    *sync.Cond
	conn    *streamConn
	dialing bool
	closed  bool
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
	c.cond = sync.NewCond(&c.mu)
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
// because roundTrip copies the payload into its own frame buffer before
// queueing it, so the payload is unreferenced once roundTrip returns.
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

// errCallTimeout reports a stream that stopped acking for a full call
// timeout; it unwraps to context.DeadlineExceeded like the per-call
// deadline it replaces. The connection's watchdog raises it (see
// streamConn.watchdog) so the ingest hot path pays no per-call timer.
var errCallTimeout = fmt.Errorf("reefstream: publish round trip timed out: %w", context.DeadlineExceeded)

// publishPayload ships an EncodeEvents payload as one publish frame
// and waits for its ack, through retryOnce.
func (c *Client) publishPayload(ctx context.Context, payload []byte) (int, error) {
	var delivered int
	err := c.retryOnce(ctx, func(sc *streamConn) (err error) {
		begin := time.Now()
		if delivered, err = sc.roundTrip(ctx, durable.OpStreamPublish, payload); err == nil {
			c.mAckRTT.Observe(time.Since(begin).Seconds())
		}
		return err
	})
	return delivered, err
}

// retryOnce runs call on the live connection. A connection-level
// failure drops the connection and runs call once more on a fresh one;
// a server verdict (StatusError), a timeout or the caller's ctx ending
// is returned as is.
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
		// Connection-level failure: drop the conn so the next attempt
		// (ours or a concurrent caller's) redials.
		c.dropConn(sc)
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
		accepted, err := sc.roundTrip(ctx, durable.OpStreamClicks, buf)
		total += accepted
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
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	sc := c.conn
	c.conn = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if sc != nil {
		sc.markDead(reef.ErrClosed)
	}
	return nil
}

// getConn returns the live connection, dialing one (single-flight) if
// needed. Concurrent callers wait for the dialer rather than piling on.
func (c *Client) getConn(ctx context.Context) (*streamConn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, reef.ErrClosed
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if c.conn != nil && !c.conn.isDead() {
			sc := c.conn
			c.mu.Unlock()
			return sc, nil
		}
		if !c.dialing {
			c.dialing = true
			c.mu.Unlock()
			sc, err := c.dial()
			c.mu.Lock()
			c.dialing = false
			if err == nil {
				c.conn = sc
			}
			c.cond.Broadcast()
			if err != nil {
				c.mu.Unlock()
				return nil, err
			}
			continue
		}
		c.cond.Wait()
	}
}

// dropConn forgets sc if it is still the current connection, so the
// next getConn redials. The conn itself is torn down by markDead.
func (c *Client) dropConn(sc *streamConn) {
	sc.markDead(errors.New("reefstream: connection dropped"))
	c.mu.Lock()
	if c.conn == sc {
		c.conn = nil
	}
	c.mu.Unlock()
}

// dialTimeout bounds the dial, and then the hellos.
const dialTimeout = 5 * time.Second

// dial opens the stream: by upgrade from a base URL, by TCP to a
// host:port, with the hellos either way. A node that answers the upgrade
// with 404 or 426 does not serve the stream: its StatusUnsupported
// verdict. One that answers 5xx (503 while it replays its WAL) is
// unavailable. Any other refusal is a dial error.
func (c *Client) dial() (*streamConn, error) {
	conn, err := upgrade.Open(http.DefaultTransport, c.addr, upgrade.Hello{}, c.expectNode, dialTimeout)
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
	return newStreamConn(conn, c.callTimeout), nil
}

// streamConn is one handshaken connection: a writer goroutine drains
// queued frames and flushes them in batches, a reader goroutine
// dispatches acks to per-sequence waiters. Death is sticky.
type streamConn struct {
	conn    io.ReadWriteCloser
	writeCh chan *[]byte

	wmu     sync.Mutex
	nextSeq uint64
	waiters map[uint64]chan ack

	// Consumer sessions (the read side of the data plane). attachMu
	// single-flights session creation per (user, subID); cmu guards the
	// maps shared with the read loop's deliver dispatch. Sessions die
	// with the connection and re-attach lazily after a redial — the
	// delivery queue's leases make the re-sent window safe.
	attachMu  sync.Mutex
	cmu       sync.Mutex
	nextCID   uint64
	consumers map[string]*clientConsumer // keyed user + "\x00" + subID
	byCID     map[uint64]*clientConsumer

	acks atomic.Uint64 // total acks received; the watchdog's progress signal

	dead    chan struct{}
	deadErr error
	once    sync.Once
}

func newStreamConn(conn io.ReadWriteCloser, callTimeout time.Duration) *streamConn {
	sc := &streamConn{
		conn:      conn,
		writeCh:   make(chan *[]byte, 256),
		waiters:   make(map[uint64]chan ack),
		consumers: make(map[string]*clientConsumer),
		byCID:     make(map[uint64]*clientConsumer),
		dead:      make(chan struct{}),
	}
	go sc.writeLoop(bufio.NewWriterSize(conn, 64<<10))
	go sc.readLoop(bufio.NewReaderSize(conn, 256<<10))
	go sc.watchdog(callTimeout / 2)
	return sc
}

// watchdog enforces the call timeout per connection instead of per
// call: the stream is FIFO, so if any ack is outstanding across a full
// interval in which zero acks arrived, the connection is stuck — kill
// it, failing every waiter with the timeout error. This keeps a timer
// and an extra select case off the publish hot path.
func (sc *streamConn) watchdog(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var lastAcks uint64
	stalled := false // a waiter was already pending at the previous tick
	for {
		select {
		case <-sc.dead:
			return
		case <-t.C:
			acks := sc.acks.Load()
			sc.wmu.Lock()
			pending := len(sc.waiters)
			sc.wmu.Unlock()
			if pending > 0 && stalled && acks == lastAcks {
				sc.markDead(errCallTimeout)
				return
			}
			stalled = pending > 0
			lastAcks = acks
		}
	}
}

func (sc *streamConn) isDead() bool {
	select {
	case <-sc.dead:
		return true
	default:
		return false
	}
}

// markDead tears the connection down exactly once: the error becomes
// sticky, the socket closes (kicking both loops), and every waiter is
// failed so no caller hangs on an ack that will never come. Waiters are
// failed with a connDead ack rather than a close so their channels stay
// poolable.
func (sc *streamConn) markDead(err error) {
	sc.once.Do(func() {
		sc.deadErr = err
		close(sc.dead)
		sc.conn.Close()
		sc.wmu.Lock()
		waiters := sc.waiters
		sc.waiters = nil
		sc.wmu.Unlock()
		for _, ch := range waiters {
			// Guaranteed room: a channel still registered has no
			// pending send (readLoop deletes before sending).
			ch <- ack{connDead: true}
		}
	})
}

// framePool recycles publish frame buffers: roundTrip fills one, the
// write loop hands it back once the bytes are on the wire.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// waiterPool recycles ack waiter channels. A channel is pooled only
// after its owner received from it (buffer empty again); abandoned
// waiters — context cancellation racing a late ack — are left to the
// garbage collector.
var waiterPool = sync.Pool{New: func() any { return make(chan ack, 1) }}

// writeLoop drains queued frames, opportunistically batching every
// frame already queued into one flush — concurrent publishers share
// flushes instead of paying one syscall each.
func (sc *streamConn) writeLoop(bw *bufio.Writer) {
	for {
		select {
		case <-sc.dead:
			return
		case frame := <-sc.writeCh:
			if !sc.writeFrame(bw, frame) {
				return
			}
		batch:
			for {
				select {
				case frame := <-sc.writeCh:
					if !sc.writeFrame(bw, frame) {
						return
					}
				default:
					break batch
				}
			}
			if err := bw.Flush(); err != nil {
				sc.markDead(err)
				return
			}
		}
	}
}

func (sc *streamConn) writeFrame(bw *bufio.Writer, frame *[]byte) bool {
	_, err := bw.Write(*frame)
	framePool.Put(frame)
	if err != nil {
		sc.markDead(err)
		return false
	}
	return true
}

func (sc *streamConn) readLoop(br *bufio.Reader) {
	var buf []byte
	var ds []delivery.Delivered
	var pairs []eventalg.Attr
	for {
		rec, err := durable.ReadFrame(br, &buf)
		if err != nil {
			sc.markDead(fmt.Errorf("reefstream: connection lost: %w", err))
			return
		}
		if rec.Op == durable.OpStreamDeliver {
			// Pushed delivery: buffer it on its consumer session in the
			// public form. The events' text and payloads are their own —
			// they outlive the read buffer, handed to the application by
			// FetchEvents — while their pairs are done with once
			// converted, so one pair buffer serves every frame.
			cid, batch, derr := decodeDeliver(rec.Payload, ds[:0], &pairs)
			if derr != nil {
				sc.markDead(derr)
				return
			}
			sc.dispatchDeliver(cid, batch)
			clear(batch)
			clear(pairs)
			ds, pairs = batch[:0], pairs[:0]
			continue
		}
		if rec.Op != durable.OpStreamAck {
			sc.markDead(fmt.Errorf("%w: unexpected op %v from server", ErrBadFrame, rec.Op))
			return
		}
		a, err := decodeAck(rec.Payload)
		if err != nil {
			sc.markDead(err)
			return
		}
		sc.acks.Add(1)
		sc.wmu.Lock()
		ch := sc.waiters[a.Seq]
		delete(sc.waiters, a.Seq)
		sc.wmu.Unlock()
		if ch != nil {
			ch <- a
		}
	}
}

// beginCall registers an ack waiter under the next sequence number.
// Every acked verb (publish, subscribe, consume-ack) claims its slot
// here before framing, so the sequence space stays shared and FIFO.
func (sc *streamConn) beginCall() (uint64, chan ack, error) {
	sc.wmu.Lock()
	if sc.waiters == nil {
		sc.wmu.Unlock()
		return 0, nil, sc.deadErr
	}
	sc.nextSeq++
	seq := sc.nextSeq
	waiter := waiterPool.Get().(chan ack)
	sc.waiters[seq] = waiter
	sc.wmu.Unlock()
	return seq, waiter, nil
}

// finishCall queues the framed call and waits for its ack. The
// connection's watchdog bounds the wait when the caller's context
// cannot (markDead fails every waiter), so the no-deadline hot path is
// a plain channel receive, not a select.
func (sc *streamConn) finishCall(ctx context.Context, seq uint64, waiter chan ack, fp *[]byte) (ack, error) {
	done := ctx.Done()
	// Fast path: the write queue almost always has room, and the
	// non-blocking send is far cheaper than a three-way select.
	select {
	case sc.writeCh <- fp:
	default:
		select {
		case sc.writeCh <- fp:
		case <-sc.dead:
			sc.forget(seq)
			return ack{}, sc.deadErr
		case <-done:
			sc.forget(seq)
			return ack{}, ctx.Err()
		}
	}

	var a ack
	if done == nil {
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
	if a.connDead {
		return ack{}, sc.deadErr
	}
	return a, nil
}

// roundTrip queues one publish or clicks frame and waits for its ack.
// A trace ID carried by ctx rides a publish frame's optional trailing
// field, stitching the publish into the server's span ring.
func (sc *streamConn) roundTrip(ctx context.Context, op durable.Op, payload []byte) (int, error) {
	seq, waiter, err := sc.beginCall()
	if err != nil {
		return 0, err
	}
	fp := framePool.Get().(*[]byte)
	if op == durable.OpStreamClicks {
		*fp = appendClicksFrame((*fp)[:0], seq, payload)
	} else {
		tr, _ := trace.FromContext(ctx)
		*fp = appendPublishFrame((*fp)[:0], seq, payload, tr)
	}
	a, err := sc.finishCall(ctx, seq, waiter, fp)
	if err != nil {
		return 0, err
	}
	if a.Status != StatusOK {
		return int(a.Delivered), &StatusError{Status: a.Status, Message: a.Message}
	}
	return int(a.Delivered), nil
}

// forget abandons a waiter (timeout, cancellation, queue failure) so a
// late ack does not leak the channel entry.
func (sc *streamConn) forget(seq uint64) {
	sc.wmu.Lock()
	if sc.waiters != nil {
		delete(sc.waiters, seq)
	}
	sc.wmu.Unlock()
}
