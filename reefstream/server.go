package reefstream

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"reef"
	"reef/internal/builtin"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/trace"
	"reef/internal/upgrade"
)

// maxCoalesceEvents bounds how many events one server-side coalescing
// pass may gather across pipelined frames before applying them as a
// single batch publish.
const maxCoalesceEvents = 16384

// ServerOption configures a stream server.
type ServerOption func(*Server)

// WithNode sets the node identity the server reports in its handshake
// hello, letting clients verify they reached the node they dialed (the
// same identity guard the cluster prober applies to /healthz).
func WithNode(id string) ServerOption {
	return func(s *Server) { s.node = id }
}

// WithMetrics reports the server's instrumentation (connection gauge,
// frame/event counters, coalesced-batch histogram) into a shared
// registry — reefd passes its REST handler's registry so one
// /v1/metrics scrape covers both planes. Without it the server uses a
// private registry.
func WithMetrics(r *metrics.Registry) ServerOption {
	return func(s *Server) { s.metrics = r }
}

// WithTraceRecorder records a span per traced publish frame into the
// given ring (shared with the node's REST handler, so /v1/admin/trace
// stitches both planes). Without it traced frames are applied but not
// recorded.
func WithTraceRecorder(r *trace.Recorder) ServerOption {
	return func(s *Server) { s.tracer = r }
}

// Server serves stream connections and feeds decoded publish and
// clicks frames into a deployment. One goroutine per connection reads
// frames, coalesces whatever publishes are already buffered into a
// single batch publish, and acks every frame with its exact count.
type Server struct {
	dep    reef.Deployment
	entry  builtin.Entry            // the built-in engine's own entry; zero for any other deployment
	counts reef.BatchCountPublisher // non-nil when dep attributes per-event counts
	stream reef.StreamDeliverer     // non-nil when dep can push reliable deliveries
	node   string
	ln     net.Listener

	metrics *metrics.Registry
	tracer  *trace.Recorder

	// Registry-backed instrumentation, resolved once in NewServer so
	// the hot paths never take the registry lock.
	mConns     *metrics.Gauge
	mFramesIn  *metrics.Counter
	mFramesOut *metrics.Counter
	mEventsIn  *metrics.Counter
	mClicksIn  *metrics.Counter
	mBatch     *metrics.Histogram
	mConsumers *metrics.Gauge
	mDelivered *metrics.Counter

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	closed   bool

	acceptDone chan struct{}
	handlers   sync.WaitGroup
}

// Listen starts a stream server on addr (e.g. "127.0.0.1:0") serving
// the deployment. The listener is accepting when Listen returns.
func Listen(addr string, dep reef.Deployment, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("reefstream: listen %s: %w", addr, err)
	}
	return NewServer(ln, dep, opts...), nil
}

// NewServer serves stream connections from an existing listener. The
// server owns the listener and closes it on Shutdown/Close. A server
// with a nil ln has no Addr and serves only what ServeConn hands it.
func NewServer(ln net.Listener, dep reef.Deployment, opts ...ServerOption) *Server {
	s := &Server{
		dep:        dep,
		ln:         ln,
		conns:      make(map[net.Conn]struct{}),
		acceptDone: make(chan struct{}),
	}
	s.entry, _ = builtin.Of(dep)
	if bc, ok := dep.(reef.BatchCountPublisher); ok {
		s.counts = bc
	}
	if sd, ok := dep.(reef.StreamDeliverer); ok {
		s.stream = sd
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics == nil {
		s.metrics = metrics.NewRegistry()
	}
	s.mConns = s.metrics.Gauge(metrics.StreamConns.Name)
	s.mFramesIn = s.metrics.Counter(metrics.StreamFramesIn.Name)
	s.mFramesOut = s.metrics.Counter(metrics.StreamFramesOut.Name)
	s.mEventsIn = s.metrics.Counter(metrics.StreamEventsIn.Name)
	s.mClicksIn = s.metrics.Counter(metrics.StreamClicksIn.Name)
	s.mBatch = s.metrics.Histogram(metrics.StreamBatchEvents.Name)
	s.mConsumers = s.metrics.Gauge(metrics.StreamConsumers.Name)
	s.mDelivered = s.metrics.Counter(metrics.StreamDelivered.Name)
	go s.acceptLoop()
	return s
}

// Addr reports the listener address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats reports how many publish frames and events this server has
// applied since start. The counts are views over the server's registry
// metrics (reef_stream_frames_in_total / reef_stream_events_in_total),
// so this legacy accessor and the /v1/metrics exposition can never
// disagree.
func (s *Server) Stats() (frames, events int64) {
	return s.mFramesIn.Value(), s.mEventsIn.Value()
}

// ConsumeStats reports the consume side of the data plane: how many
// consumer sessions are attached right now, and how many events have
// been pushed to consumers since start (redeliveries included). Like
// Stats, the counts are views over the registry metrics.
func (s *Server) ConsumeStats() (attached, delivered int64) {
	return s.mConsumers.Value(), s.mDelivered.Value()
}

// Metrics returns the server's instrumentation registry.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// acceptLoop runs the hellos on each connection the listener accepts, on
// its own goroutine, refusing replication links, and hands a stream
// client's to ServeConn.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for s.ln != nil {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Close
		}
		go func() {
			if _, err := upgrade.Accept(conn, conn, s.node, false); err != nil {
				conn.Close()
				return
			}
			s.ServeConn(conn, nil)
		}()
	}
}

// ServeConn serves a stream client's conn, its hellos exchanged, on its
// own goroutine: one the listener accepted or one hijacked from an HTTP
// upgrade, whose bytes already read into buffered (nil for none) come
// first. Shutdown and Close treat both alike; a draining server closes
// conn unserved.
func (s *Server) ServeConn(conn net.Conn, buffered *bufio.Reader) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	s.mu.Unlock()
	s.mConns.Add(1)
	var r io.Reader = conn
	if buffered != nil && buffered.Buffered() > 0 {
		r = io.MultiReader(io.LimitReader(buffered, int64(buffered.Buffered())), conn)
	}
	go func() {
		defer s.handlers.Done()
		s.serveConn(conn, r)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.mConns.Add(-1)
	}()
}

// Shutdown drains the server: stop accepting connections and frames,
// apply and ack every frame already read, flush, then close. It blocks
// until all connection handlers have finished or ctx expires; on expiry
// remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	if !alreadyDraining {
		if s.ln != nil {
			s.ln.Close()
		}
		// Kick handlers blocked in a read. Frames already buffered in
		// a handler's reader still decode fine; only the blocking wait
		// on the socket is interrupted.
		for conn := range s.conns {
			conn.SetReadDeadline(time.Now())
		}
	}
	s.mu.Unlock()
	<-s.acceptDone

	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes the server without waiting for in-flight frames.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	<-s.acceptDone
	s.handlers.Wait()
	return nil
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// frameSpan marks one publish frame's slice of the coalesced event
// batch, so its ack can report exactly its own deliveries; tr is the
// frame's trace ID (zero when untraced).
type frameSpan struct {
	seq        uint64
	start, end int
	tr         trace.ID
}

// serveConn serves conn, reading its frames from r.
func (s *Server) serveConn(conn net.Conn, r io.Reader) {
	defer conn.Close()
	br := bufio.NewReaderSize(r, 256<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// All further writes go through cs: consumer pushers share the
	// socket with the ack path, so the bufio writer is mutex-serialized
	// from here on.
	cs := newConnState(s, bw)
	defer cs.closeConsumers()

	var (
		readBuf []byte
		evs     []pubsub.Event
		spans   []frameSpan
		ackBuf  []byte
		counts  []int
	)
	for {
		evs, spans = evs[:0], spans[:0]
		var ctrl durable.Record
		hasCtrl := false
		// Block for one frame, then keep decoding as long as more
		// frames are already buffered — pipelined publishes coalesce
		// into one batch publish without adding latency to a lone one.
		// Any other frame ends the pass (it is handled after the
		// publishes it trailed, preserving frame order).
		rec, err := durable.ReadFrame(br, &readBuf)
		for {
			if err != nil {
				break
			}
			if rec.Op != durable.OpStreamPublish {
				ctrl, hasCtrl = rec, true
				break
			}
			start := len(evs)
			seq, tr, more, derr := decodePublish(rec.Payload, evs)
			if derr != nil {
				// evs keeps the frames before this one, to be applied.
				err = derr
				break
			}
			evs = more
			spans = append(spans, frameSpan{seq: seq, start: start, end: len(evs), tr: tr})
			if br.Buffered() < durable.FrameHeaderLen || len(evs) >= maxCoalesceEvents {
				break
			}
			rec, err = durable.ReadFrame(br, &readBuf)
		}
		// Apply and ack everything that was fully read, even when the
		// read that followed it failed (drain kick, peer gone, corrupt
		// frame): a frame the server read is never left half-applied.
		if len(spans) > 0 {
			ackBuf, counts = s.applyAndAck(evs, spans, ackBuf[:0], counts)
			clear(evs) // the engine keeps what it retains; drop the rest
			if cs.write(ackBuf) != nil {
				return
			}
		}
		if hasCtrl {
			var cerr error
			ackBuf, cerr = s.handleControl(cs, ctrl, ackBuf[:0])
			if cerr != nil {
				return
			}
			if len(ackBuf) > 0 && cs.write(ackBuf) != nil {
				return
			}
		}
		if err != nil {
			return
		}
		if s.isDraining() && br.Buffered() < durable.FrameHeaderLen {
			return
		}
	}
}

// handleControl dispatches one frame other than a publish: subscribe,
// consume-ack and clicks get an ack frame appended to dst (matched by
// sequence number client-side), credit is fire-and-forget. A clicks
// frame is applied here, inline, so frames behind it on the connection
// wait for it. A malformed payload or an op that has no business
// arriving from a client is a protocol error that kills the connection.
func (s *Server) handleControl(cs *connState, rec durable.Record, dst []byte) ([]byte, error) {
	switch rec.Op {
	case durable.OpStreamClicks:
		seq, clicks, err := decodeClicksFrame(rec.Payload)
		if err != nil {
			return dst, err
		}
		n, err := s.dep.IngestClicks(context.Background(), clicks)
		a := ack{Seq: seq, Delivered: uint64(n)}
		if err != nil {
			a.Status = statusFor(err)
			a.Message = err.Error()
		} else {
			s.mClicksIn.Add(int64(n))
		}
		return appendAckFrame(dst, a), nil
	case durable.OpStreamSubscribe:
		sub, err := decodeSubscribe(rec.Payload)
		if err != nil {
			return dst, err
		}
		a := ack{Seq: sub.Seq}
		if err := cs.attach(sub); err != nil {
			a.Status = statusFor(err)
			a.Message = err.Error()
		}
		return appendAckFrame(dst, a), nil
	case durable.OpStreamConsumeAck:
		ca, err := decodeConsumeAck(rec.Payload)
		if err != nil {
			return dst, err
		}
		a := ack{Seq: ca.Seq}
		if err := cs.consumeAck(ca); err != nil {
			a.Status = statusFor(err)
			a.Message = err.Error()
		}
		return appendAckFrame(dst, a), nil
	case durable.OpStreamCredit:
		cr, err := decodeCredit(rec.Payload)
		if err != nil {
			return dst, err
		}
		cs.addCredit(cr)
		return dst, nil
	default:
		return dst, fmt.Errorf("%w: unexpected op %v mid-stream", ErrBadFrame, rec.Op)
	}
}

// applyAndAck publishes the coalesced batch and appends one ack frame
// per span to dst. When the deployment attributes per-event delivery
// counts the whole batch goes down in one call; otherwise — or when the
// batch call fails and error attribution matters — each frame is
// published on its own. countScratch is the caller's reusable per-event
// count slice; it is returned (possibly regrown) for the next pass.
func (s *Server) applyAndAck(evs []pubsub.Event, spans []frameSpan, dst []byte, countScratch []int) ([]byte, []int) {
	ctx := context.Background()
	begin := time.Now()
	s.mBatch.Observe(float64(len(evs)))
	if s.entry.Publish != nil || s.counts != nil {
		if cap(countScratch) < len(evs) {
			countScratch = make([]int, len(evs))
		}
		counts := countScratch[:len(evs)]
		clear(counts)
		if _, err := s.publish(ctx, evs, counts); err == nil {
			s.mFramesIn.Add(int64(len(spans)))
			s.mEventsIn.Add(int64(len(evs)))
			s.mFramesOut.Add(int64(len(spans)))
			for _, sp := range spans {
				delivered := 0
				for _, c := range counts[sp.start:sp.end] {
					delivered += c
				}
				dst = appendAckFrame(dst, ack{Seq: sp.seq, Delivered: uint64(delivered)})
				s.recordPublishSpan(sp, begin, "")
			}
			return dst, countScratch
		}
		// Group publish failed: fall through and retry per frame so
		// each ack carries its own verdict, not the group's.
	}
	for _, sp := range spans {
		delivered, err := s.publish(ctx, evs[sp.start:sp.end], nil)
		a := ack{Seq: sp.seq, Delivered: uint64(delivered)}
		errStr := ""
		if err != nil {
			a.Status = statusFor(err)
			a.Message = err.Error()
			errStr = err.Error()
		} else {
			s.mFramesIn.Add(1)
			s.mEventsIn.Add(int64(sp.end - sp.start))
		}
		s.mFramesOut.Add(1)
		dst = appendAckFrame(dst, a)
		s.recordPublishSpan(sp, begin, errStr)
	}
	return dst, countScratch
}

// publish hands decoded events to the deployment. A built-in engine
// takes them as they are; any other deployment gets them converted to
// reef.Events at this edge, through PublishBatchCounts when counts is
// set and PublishBatch otherwise.
func (s *Server) publish(ctx context.Context, evs []pubsub.Event, counts []int) (int, error) {
	if s.entry.Publish != nil {
		return s.entry.Publish(ctx, evs, counts)
	}
	pub := make([]reef.Event, len(evs))
	for i := range evs {
		pub[i] = publicEvent(evs[i])
	}
	if counts != nil {
		return s.counts.PublishBatchCounts(ctx, pub, counts)
	}
	return s.dep.PublishBatch(ctx, pub)
}

// recordPublishSpan records one traced publish frame into the node's
// span ring; untraced frames (the common case) are free.
func (s *Server) recordPublishSpan(sp frameSpan, begin time.Time, errStr string) {
	if sp.tr.IsZero() {
		return
	}
	s.tracer.Record(trace.Span{
		Trace: sp.tr, Op: "stream.publish", Node: s.node, Shard: -1,
		Start: begin, Duration: time.Since(begin), Err: errStr,
	})
	s.metrics.Counter(metrics.TraceSpans.Name).Inc()
}
