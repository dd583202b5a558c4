// Package reefstream is the binary data plane: a persistent-connection,
// length-prefixed streaming protocol that carries events to and from a
// reef deployment without the per-call HTTP/1.1 + JSON envelope the
// REST transport pays. REST (reefclient) remains the control plane —
// subscriptions, recommendations, stats — while this package moves the
// three hot, high-volume verbs: publish (ingest), reliable consume
// (server-pushed delivery with pipelined acks), and the click batches a
// cluster router forwards to each user's owning node.
//
// # Wire format
//
// Every message on the wire is one internal/durable record frame
// ([4B body length][4B CRC32-C][1B version][1B op][payload]), so the
// ingest wire format and the WAL/replication format are a single codec
// with a single fuzzer. Each encoder below builds its frame in place
// with durable.BeginFrame/EndFrame, the WAL's own frame writer, and
// each decoder reads its payload with durable.Reader, the WAL's own
// payload reader, so a stream frame costs no allocation to encode and
// shares every bounds check with the log. Stream frames carry version
// 1. Eight ops exist only on the wire and never in a WAL file:
//
//	OpStreamHello      (8)  JSON handshake, both directions
//	OpStreamPublish    (9)  [8B LE seq][uvarint n][n × event][optional 16B trace ID]
//	OpStreamAck        (10) [8B LE seq][8B LE delivered][1B status][uvarint-len message]
//	OpStreamSubscribe  (11) [8B LE seq][8B LE cid][uvarint credit][uvarint-len user][uvarint-len subID]
//	OpStreamDeliver    (12) [8B LE cid][uvarint n][n × ([8B LE seq][uvarint attempts][event])]
//	OpStreamConsumeAck (13) [8B LE seq][8B LE cid][8B LE ackSeq][1B nack]
//	OpStreamCredit     (14) [8B LE cid][uvarint n]
//	OpStreamClicks     (16) [8B LE seq][OpClicks version-2 payload]
//
// An event is encoded as [uvarint-len source][uvarint nattrs]
// [nattrs × (uvarint-len key, uvarint-len value)][uvarint-len payload]
// [8B LE unix-nanos published] where published 0 means unset.
//
// # Session
//
// A client dials a node's base URL with an HTTP/1.1 Upgrade to
// upgrade.Path, which every reefhttp handler serves (RFC 9110 §7.8); a
// 404 or 426 fails every call with StatusUnsupported, a 5xx with
// StatusUnavailable. A Listen server takes the same stream on a bare
// TCP connection. The client sends a hello; the server answers with its
// own hello carrying its node ID, which the client may verify against an
// expected identity (the same guard the cluster prober applies to
// /healthz). The hellos are internal/upgrade's, shared with the
// replication link, whose hello declares that role; a Listen server
// refuses it. After the handshake the client pipelines publish frames
// without waiting for acks; the server reads frames, coalesces whatever
// is already buffered into one PublishBatch call against the deployment,
// and acks every frame with its exact delivered count (via
// reef.BatchCountPublisher when the deployment offers it). Acks may
// arrive out of order with respect to nothing — the server acks in
// frame order — but the client matches them by sequence number
// regardless.
//
// A clicks frame carries exactly the bytes durable.ClicksRecord writes
// into the WAL after its sequence number, and the server decodes them
// with durable.DecodeClicks: the wire and the log share one click codec.
// The server applies a clicks frame inline, in frame order, and answers
// with an ack whose delivered count is the clicks it accepted. Clicks
// are not idempotent, so a clicks frame is never re-sent: once queued,
// a dead connection is the caller's error; a server older than the verb
// kills the connection on the frame.
//
// # Consume
//
// The same connection carries the read side. A subscribe frame attaches
// a consumer for one (user, subscription) with an initial credit window
// (answered by an ack frame matched on its sequence number); the server
// then pushes deliver frames the moment events are retained — woken by
// the delivery queue's notify hook, not by polling — decrementing
// credit per pushed event and stopping at zero. The client replenishes
// credit with fire-and-forget credit frames as its application consumes,
// and advances the durable cursor with consume-ack frames that pipeline
// like publishes: cumulative, matched by sequence number, never blocking
// the push direction.
//
// # Drain
//
// Server.Shutdown, and reefhttp's Handler.Shutdown for the connections
// its route took, stop taking connections and interrupt each one's
// read: ServeConn applies and acks every frame already read, then
// closes. The invariant: a frame the server read is fully applied and
// acked; bytes still in flight are never partially applied. Pushed
// deliveries need no drain step: an unacked delivery is redelivered
// after its lease, on this node or on a promoted replica.
package reefstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"reef"
	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/eventalg"
	"reef/internal/pubsub"
	"reef/internal/trace"
)

// MaxFrameEvents bounds the events one publish frame, and the clicks one
// clicks frame, may carry; larger batches are split by the client. It
// keeps a single frame's decode allocation and the server's coalescing
// buffer bounded.
const MaxFrameEvents = 4096

// Ack status bytes. The numeric values are part of the wire format.
const (
	StatusOK              = 0
	StatusInvalidArgument = 1
	StatusUnavailable     = 2
	StatusInternal        = 3
	StatusUnsupported     = 4
	StatusNotFound        = 5
)

// ErrBadFrame marks a structurally invalid stream payload: the durable
// frame decoded (length and CRC were fine) but the op-specific payload
// inside it is malformed. Like the durable codec's errors it is a
// typed, terminal decode verdict — never a panic.
var ErrBadFrame = errors.New("reefstream: malformed frame payload")

// StatusError is a non-OK ack surfaced to the publisher. It unwraps to
// the matching reef sentinel so callers keep their errors.Is checks.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("reefstream: rejected (status %d): %s", e.Status, e.Message)
}

// Unwrap maps wire statuses onto the reef sentinels: invalid_argument
// unwraps to reef.ErrInvalidArgument, unavailable (server draining or
// closed) to reef.ErrClosed, unsupported (no reliable-delivery surface
// behind the stream, or a node that does not serve the stream at all)
// to reef.ErrUnsupported, not_found (unknown
// subscription) to reef.ErrNotFound.
func (e *StatusError) Unwrap() error {
	switch e.Status {
	case StatusInvalidArgument:
		return reef.ErrInvalidArgument
	case StatusUnavailable:
		return reef.ErrClosed
	case StatusUnsupported:
		return reef.ErrUnsupported
	case StatusNotFound:
		return reef.ErrNotFound
	}
	return nil
}

// statusFor classifies a deployment error into a wire status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, reef.ErrInvalidArgument):
		return StatusInvalidArgument
	case errors.Is(err, reef.ErrClosed):
		return StatusUnavailable
	case errors.Is(err, reef.ErrUnsupported):
		return StatusUnsupported
	case errors.Is(err, reef.ErrNotFound):
		return StatusNotFound
	default:
		return StatusInternal
	}
}

// AppendEvent appends one encoded event to dst. Attribute order is not
// canonicalized: encode→decode round-trips the event, but two equal
// events may encode differently. That is fine — frames are transport,
// not identity.
func AppendEvent(dst []byte, ev reef.Event) []byte {
	pp := pairPool.Get().(*[]eventalg.Attr)
	dst = appendPublicEvent(dst, ev, pp)
	pairPool.Put(pp)
	return dst
}

// EncodeEvents encodes a batch into the seq-less body of a publish
// frame: [uvarint n][n × event]; the client prepends its own sequence
// number when it frames the payload.
func EncodeEvents(evs []reef.Event) []byte {
	return AppendEvents(nil, evs)
}

// AppendEvents appends the EncodeEvents body to dst, for callers that
// reuse an encode buffer across publishes.
func AppendEvents(dst []byte, evs []reef.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	pp := pairPool.Get().(*[]eventalg.Attr)
	for _, ev := range evs {
		dst = appendPublicEvent(dst, ev, pp)
	}
	pairPool.Put(pp)
	return dst
}

// pairPool recycles the pair buffer a public event's attribute map is
// laid out in for appendEvent.
var pairPool = sync.Pool{New: func() any { return new([]eventalg.Attr) }}

// appendPublicEvent encodes a public event through appendEvent, laying
// its attribute map out in *pairs (reused; cleared before it returns).
func appendPublicEvent(dst []byte, ev reef.Event, pairs *[]eventalg.Attr) []byte {
	ps := (*pairs)[:0]
	for k, v := range ev.Attrs {
		ps = append(ps, eventalg.Attr{Name: k, Val: eventalg.String(v)})
	}
	dst = appendEvent(dst, ev.Source, ps, ev.Payload, ev.Published)
	clear(ps)
	*pairs = ps[:0]
	return dst
}

// appendEvent is the one event encoder. Each attribute goes on the wire
// as its name and its value's text, in the order given.
func appendEvent(dst []byte, source string, attrs []eventalg.Attr, payload []byte, published time.Time) []byte {
	dst = durable.AppendString(dst, source)
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for i := range attrs {
		dst = durable.AppendString(dst, attrs[i].Name)
		dst = durable.AppendString(dst, attrs[i].Val.Text())
	}
	dst = durable.AppendBytes(dst, payload)
	var nanos uint64
	if !published.IsZero() {
		nanos = uint64(published.UnixNano())
	}
	return binary.LittleEndian.AppendUint64(dst, nanos)
}

// badFrame marks an error of the shared durable codec as a malformed
// stream payload, so callers keep matching ErrBadFrame.
func badFrame(err error) error {
	return fmt.Errorf("%w: %w", ErrBadFrame, err)
}

// decodeEvent is the one event decoder: it decodes one event from the
// front of buf into the engine's form. The event owns its bytes and
// nothing else: one string holds its source and attribute text, and the
// payload is its own copy (frames decode zero-copy from a reused read
// buffer, so the event must not alias buf). Attributes come out in
// name order; of a repeated name the last value wins, as it would in
// the map a REST body decodes into. With pairs nil the attributes get a
// slice of their own; otherwise they are carved from *pairs, for a
// caller that is done with the events before it decodes again. It
// decodes into *ev, which it expects zero, and returns the bytes after
// the event.
func decodeEvent(buf []byte, ev *pubsub.Event, pairs *[]eventalg.Attr) ([]byte, error) {
	src, rest, err := durable.DecodeBytes(buf)
	if err != nil {
		return nil, badFrame(err)
	}
	nattrs, rest, err := durable.DecodeUvarint(rest)
	if err != nil {
		return nil, badFrame(err)
	}
	// Each attribute costs at least two length bytes; anything claiming
	// more attributes than remaining bytes is garbage, not a big event.
	if nattrs > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: %d attrs in %d bytes", ErrBadFrame, nattrs, len(rest))
	}
	// First pass: bound every field and size the event's text.
	fields, text := rest, len(src)
	for i := uint64(0); i < nattrs; i++ {
		var k, v []byte
		if k, rest, err = durable.DecodeBytes(rest); err != nil {
			return nil, badFrame(err)
		}
		if v, rest, err = durable.DecodeBytes(rest); err != nil {
			return nil, badFrame(err)
		}
		text += len(k) + len(v)
	}
	payload, rest, err := durable.DecodeBytes(rest)
	if err != nil {
		return nil, badFrame(err)
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: truncated publish timestamp", ErrBadFrame)
	}
	// The fields are known good: copy the text into one string, then cut
	// the source and every name and value out of it.
	var sb strings.Builder
	sb.Grow(text)
	sb.Write(src)
	for i, r := uint64(0), fields; i < nattrs; i++ {
		var k, v []byte
		k, r, _ = durable.DecodeBytes(r)
		v, r, _ = durable.DecodeBytes(r)
		sb.Write(k)
		sb.Write(v)
	}
	str := sb.String()
	ev.Source, str = str[:len(src)], str[len(src):]
	if nattrs > 0 {
		var attrs []eventalg.Attr
		if pairs == nil {
			attrs = make([]eventalg.Attr, nattrs)
		} else {
			start := len(*pairs)
			*pairs = append(*pairs, make([]eventalg.Attr, nattrs)...)
			attrs = (*pairs)[start:len(*pairs):len(*pairs)]
		}
		for i := range attrs {
			var k, v []byte
			k, fields, _ = durable.DecodeBytes(fields)
			v, fields, _ = durable.DecodeBytes(fields)
			attrs[i] = eventalg.Attr{Name: str[:len(k)], Val: eventalg.String(str[len(k) : len(k)+len(v)])}
			str = str[len(k)+len(v):]
		}
		ev.Attrs = eventalg.SortAttrs(attrs)
	}
	if len(payload) > 0 {
		ev.Payload = append([]byte(nil), payload...)
	}
	if nanos := binary.LittleEndian.Uint64(rest[:8]); nanos != 0 {
		ev.Published = time.Unix(0, int64(nanos)).UTC()
	}
	return rest[8:], nil
}

// decodePublish decodes an OpStreamPublish payload into its sequence
// number, optional trace ID and events. evs is appended to and
// returned, so the caller can reuse a scratch slice across frames.
// After the events the payload may carry exactly one trailing field: a
// 16-byte trace ID stitching the publish into a cross-node trace. An
// empty tail means "untraced" (the pre-trace wire shape, still what
// untraced publishers send); any other tail length is malformed.
func decodePublish(payload []byte, evs []pubsub.Event) (uint64, trace.ID, []pubsub.Event, error) {
	var tr trace.ID
	r := durable.NewReader(payload)
	seq, n := r.Uint64(), r.Count(1)
	if err := r.Err(); err != nil {
		return 0, tr, nil, badFrame(err)
	}
	if n > MaxFrameEvents {
		return 0, tr, nil, fmt.Errorf("%w: %d events in one frame", ErrBadFrame, n)
	}
	rest := r.Rest()
	var err error
	for range n {
		evs = append(evs, pubsub.Event{})
		if rest, err = decodeEvent(rest, &evs[len(evs)-1], nil); err != nil {
			return 0, tr, nil, err
		}
	}
	switch len(rest) {
	case 0:
	case trace.IDLen:
		copy(tr[:], rest)
	default:
		return 0, tr, nil, fmt.Errorf("%w: %d trailing bytes after events", ErrBadFrame, len(rest))
	}
	return seq, tr, evs, nil
}

// appendPublishFrame frames seq + an EncodeEvents payload (+ the
// optional trailing trace ID) as one OpStreamPublish record appended to
// dst. The payload slice is copied, never appended into — a cluster
// fan-out ships the same encoded body to every node, so writing the
// trace into its spare capacity would race across connections.
func appendPublishFrame(dst []byte, seq uint64, payload []byte, tr trace.ID) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamPublish)
	dst = append(binary.LittleEndian.AppendUint64(dst, seq), payload...)
	if !tr.IsZero() {
		dst = append(dst, tr[:]...)
	}
	return durable.EndFrame(dst, start)
}

// appendClicksFrame frames seq + a durable.AppendClicks payload as one
// OpStreamClicks record appended to dst.
func appendClicksFrame(dst []byte, seq uint64, payload []byte) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamClicks)
	dst = append(binary.LittleEndian.AppendUint64(dst, seq), payload...)
	return durable.EndFrame(dst, start)
}

// decodeClicksFrame decodes an OpStreamClicks payload into its sequence
// number and clicks. The count is checked against MaxFrameEvents before
// the durable decoder allocates for it.
func decodeClicksFrame(payload []byte) (uint64, []reef.Click, error) {
	r := durable.NewReader(payload)
	seq := r.Uint64()
	body := r.Rest()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, nil, badFrame(err)
	}
	if n > MaxFrameEvents {
		return 0, nil, fmt.Errorf("%w: %d clicks in one frame", ErrBadFrame, n)
	}
	p, err := durable.DecodeClicks(durable.Record{Op: durable.OpClicks, Version: durable.VersionBinary, Payload: body})
	if err != nil {
		return 0, nil, badFrame(err)
	}
	return seq, p.Clicks, nil
}

// ack is a decoded OpStreamAck. connDead is never on the wire: it is
// the in-process verdict a closed connection delivers to pending
// waiters so their channels can be pooled instead of closed.
type ack struct {
	Seq       uint64
	Delivered uint64
	Status    int
	Message   string
	connDead  bool
}

func appendAckFrame(dst []byte, a ack) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamAck)
	dst = binary.LittleEndian.AppendUint64(dst, a.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, a.Delivered)
	dst = durable.AppendString(append(dst, byte(a.Status)), a.Message)
	return durable.EndFrame(dst, start)
}

func decodeAck(payload []byte) (ack, error) {
	r := durable.NewReader(payload)
	a := ack{Seq: r.Uint64(), Delivered: r.Uint64(), Status: int(r.Byte()), Message: r.String()}
	if err := r.Finish(); err != nil {
		return ack{}, badFrame(err)
	}
	return a, nil
}

// ---- Consume-plane codecs ---------------------------------------------

// subscribe is a decoded OpStreamSubscribe: one consumer attach. Seq is
// the frame's place in the shared pipelined sequence space (its ack
// carries the server's verdict); CID is the connection-local consumer
// identity every later deliver/consume-ack/credit frame refers to.
type subscribe struct {
	Seq    uint64
	CID    uint64
	Credit uint64
	User   string
	SubID  string
}

func appendSubscribeFrame(dst []byte, s subscribe) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamSubscribe)
	dst = binary.LittleEndian.AppendUint64(dst, s.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, s.CID)
	dst = binary.AppendUvarint(dst, s.Credit)
	dst = durable.AppendString(dst, s.User)
	return durable.EndFrame(durable.AppendString(dst, s.SubID), start)
}

func decodeSubscribe(payload []byte) (subscribe, error) {
	r := durable.NewReader(payload)
	s := subscribe{Seq: r.Uint64(), CID: r.Uint64(), Credit: r.Uvarint(), User: r.String(), SubID: r.String()}
	if err := r.Finish(); err != nil {
		return subscribe{}, badFrame(err)
	}
	return s, nil
}

// appendDeliverFrame frames one pushed batch for a consumer: the CID,
// then each leased event as [8B LE seq][uvarint attempts][event]. The
// events are encoded from the engine's own form; encode allocates
// nothing beyond dst's growth.
func appendDeliverFrame(dst []byte, cid uint64, ds []delivery.Delivered) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamDeliver)
	dst = binary.LittleEndian.AppendUint64(dst, cid)
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Seq))
		dst = binary.AppendUvarint(dst, uint64(d.Attempts))
		dst = appendEvent(dst, d.Event.Source, d.Event.Attrs, d.Event.Payload, d.Event.Published)
	}
	return durable.EndFrame(dst, start)
}

// decodeDeliver decodes an OpStreamDeliver payload into its consumer ID
// and deliveries, appending to ds (reusable across frames). Each event
// owns its text and payload, as decodeEvent decodes them; pairs is
// decodeEvent's, so a caller that converts the events straight away can
// reuse one pair buffer across frames.
func decodeDeliver(payload []byte, ds []delivery.Delivered, pairs *[]eventalg.Attr) (uint64, []delivery.Delivered, error) {
	r := durable.NewReader(payload)
	cid, n := r.Uint64(), r.Count(1)
	if err := r.Err(); err != nil {
		return 0, nil, badFrame(err)
	}
	if n > MaxFrameEvents {
		return 0, nil, fmt.Errorf("%w: %d deliveries in one frame", ErrBadFrame, n)
	}
	for range n {
		d := delivery.Delivered{Seq: int64(r.Uint64()), Attempts: int(r.Uvarint())}
		if err := r.Err(); err != nil {
			return 0, nil, badFrame(err)
		}
		ds = append(ds, d)
		rest, err := decodeEvent(r.Rest(), &ds[len(ds)-1].Event, pairs)
		if err != nil {
			return 0, nil, err
		}
		r = durable.NewReader(rest)
	}
	if err := r.Finish(); err != nil {
		return 0, nil, badFrame(err)
	}
	return cid, ds, nil
}

// publicEvent converts a decoded event to the public form, at the edge
// where a non-built-in deployment or an SDK caller takes it.
func publicEvent(ev pubsub.Event) reef.Event {
	return reef.Event{Source: ev.Source, Attrs: ev.Attrs.Strings(), Payload: ev.Payload, Published: ev.Published}
}

// internalEvent converts a public event to the engine's form, at the
// edge where a non-built-in deployment hands over leased events.
func internalEvent(ev reef.Event) pubsub.Event {
	return pubsub.Event{Source: ev.Source, Attrs: eventalg.StringAttrs(ev.Attrs), Payload: ev.Payload, Published: ev.Published}
}

// consumeAck is a decoded OpStreamConsumeAck: one cumulative cursor
// advance (or nack) pipelined from a consumer. Fixed 25-byte payload.
type consumeAck struct {
	Seq    uint64
	CID    uint64
	AckSeq int64
	Nack   bool
}

func appendConsumeAckFrame(dst []byte, a consumeAck) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamConsumeAck)
	dst = binary.LittleEndian.AppendUint64(dst, a.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, a.CID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.AckSeq))
	return durable.EndFrame(durable.AppendBool(dst, a.Nack), start)
}

func decodeConsumeAck(payload []byte) (consumeAck, error) {
	r := durable.NewReader(payload)
	a := consumeAck{Seq: r.Uint64(), CID: r.Uint64(), AckSeq: int64(r.Uint64()), Nack: r.Bool()}
	if err := r.Finish(); err != nil {
		return consumeAck{}, badFrame(err)
	}
	return a, nil
}

// credit is a decoded OpStreamCredit: a fire-and-forget flow-control
// grant of n more events for one consumer.
type credit struct {
	CID uint64
	N   uint64
}

func appendCreditFrame(dst []byte, c credit) []byte {
	dst, start := durable.BeginFrame(dst, durable.OpStreamCredit)
	dst = binary.LittleEndian.AppendUint64(dst, c.CID)
	return durable.EndFrame(binary.AppendUvarint(dst, c.N), start)
}

func decodeCredit(payload []byte) (credit, error) {
	r := durable.NewReader(payload)
	c := credit{CID: r.Uint64(), N: r.Uvarint()}
	if err := r.Finish(); err != nil {
		return credit{}, badFrame(err)
	}
	return c, nil
}
