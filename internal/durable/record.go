package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"reef/internal/attention"
)

// Frame layout (little-endian):
//
//	[4B body length][4B CRC32-C of body][body]
//	body = [1B format version][1B op][payload]
//
// The length covers the body only, so the minimum frame is 10 bytes
// (8-byte header + version + op). The CRC covers the body, so a flipped
// bit anywhere in version, op or payload fails the checksum.
//
// The version byte names the payload format. Version 1 is JSON for the
// WAL ops, and the one format of every stream op; version 2 is the
// binary layout of payload.go and exists for WAL ops only. This binary
// writes version 2 for every WAL op and still decodes version 1, so old
// data directories open.
const (
	// frameHeaderLen is the fixed prefix: length + CRC.
	frameHeaderLen = 8
	// minBodyLen is version byte + op byte.
	minBodyLen = 2
	// MaxRecordLen bounds one record's body, guarding against reading a
	// corrupt length as a multi-gigabyte allocation.
	MaxRecordLen = 16 << 20
	// VersionJSON is the format of WAL records written before binary
	// payloads, and of every stream frame.
	VersionJSON = 1
	// VersionBinary is the format this binary writes WAL records in.
	VersionBinary = 2
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed decode errors. Recovery truncates the log at a torn or corrupt
// record (ErrTruncated, ErrChecksum, ErrTooLarge, ErrBadLength) and
// refuses to open one it cannot read (ErrVersion, ErrUnknownOp): those
// records are intact, written by a newer binary.
var (
	// ErrTruncated marks a frame cut short: the header or body extends
	// past the end of the log (a torn write at crash time).
	ErrTruncated = errors.New("durable: truncated record")
	// ErrChecksum marks a body whose CRC32-C does not match its header.
	ErrChecksum = errors.New("durable: record checksum mismatch")
	// ErrTooLarge marks a length field exceeding MaxRecordLen.
	ErrTooLarge = errors.New("durable: record length exceeds maximum")
	// ErrBadLength marks a length field too small to hold version + op.
	ErrBadLength = errors.New("durable: record length below minimum")
	// ErrVersion marks an unknown record format version.
	ErrVersion = errors.New("durable: unknown record version")
	// ErrUnknownOp marks an op byte outside the defined range.
	ErrUnknownOp = errors.New("durable: unknown record op")
	// ErrPayload marks a payload that does not decode as its op and
	// version say it should, inside a frame whose checksum held.
	ErrPayload = errors.New("durable: malformed record payload")
)

// Op is the operation type of a WAL record.
type Op byte

// Operations. Values are part of the on-disk format; never renumber.
const (
	// OpClicks appends a batch of attention clicks to the click store.
	OpClicks Op = 1
	// OpFlag ors a classification flag onto a server host.
	OpFlag Op = 2
	// OpSubscribe places a live subscription for a user.
	OpSubscribe Op = 3
	// OpUnsubscribe removes a user's subscription.
	OpUnsubscribe Op = 4
	// OpPendingAdd queues a recommendation in the pending ledger.
	OpPendingAdd Op = 5
	// OpPendingTake resolves a pending recommendation (accept or reject).
	OpPendingTake Op = 6
	// OpCursorAck advances a reliable subscription's cumulative delivery
	// cursor — the second record family, introduced by the reliable-
	// delivery tier.
	OpCursorAck Op = 7

	// The stream family: the binary publish data plane (reefstream)
	// frames its wire protocol with this codec, so the on-disk WAL
	// format and the ingest wire format stay one implementation. These
	// ops never appear in a WAL file — they exist only on the wire.

	// OpStreamHello opens a stream session (JSON payload, both
	// directions of the handshake).
	OpStreamHello Op = 8
	// OpStreamPublish carries a pipelined publish batch (binary payload:
	// sequence number + encoded events).
	OpStreamPublish Op = 9
	// OpStreamAck answers one publish, subscribe, consume-ack or clicks
	// frame (binary payload: sequence number, delivered count, status).
	OpStreamAck Op = 10

	// The consume family extends the stream plane into a bidirectional
	// data plane: a consumer attaches a reliable subscription over the
	// persistent connection and the server pushes leased events to it,
	// flow-controlled by a credit window. Like 8–10 these ops exist only
	// on the wire, never in a WAL file.

	// OpStreamSubscribe attaches a consumer (binary payload: sequence
	// number, consumer ID, credit window, user, subscription ID).
	OpStreamSubscribe Op = 11
	// OpStreamDeliver pushes a batch of leased events to a consumer
	// (binary payload: consumer ID + per-event seq/attempts/event).
	OpStreamDeliver Op = 12
	// OpStreamConsumeAck advances (or nacks against) a consumer's
	// cumulative delivery cursor (binary payload: sequence number,
	// consumer ID, acked seq, nack flag).
	OpStreamConsumeAck Op = 13
	// OpStreamCredit grants a consumer additional credit, fire-and-
	// forget (binary payload: consumer ID + event count).
	OpStreamCredit Op = 14

	// OpReplPosition records how far a replica has applied one source's
	// replication stream. Unlike 8–14 it is a WAL op: the receiver
	// journals it right after the records it covers, so a recovered
	// position never runs ahead of the log that holds them. A binary
	// older than this op stops replay at it (ErrUnknownOp).
	OpReplPosition Op = 15

	// OpStreamClicks carries a click batch a router forwards to the
	// user's owning node (binary payload: sequence number + an OpClicks
	// version-2 payload). Like 8–14 it exists only on the wire, never in
	// a WAL file.
	OpStreamClicks Op = 16

	// OpPendingSeq raises the pending ledger's ID counter to at least
	// its value, on every shard: State.PendingSeq, the one state field
	// no other op carries. Only a snapshot run or a resync cut holds it,
	// so a WAL holds one only as part of a cut a replica applied.
	OpPendingSeq Op = 17

	// The replication link: a sender's batches and a receiver's acks over
	// one upgraded connection per peer (see repllink.go). Like 8–14 and
	// 16 they exist only on the wire, never in a WAL file.

	// OpReplBatch heads one replicated batch; the batch's WAL frames
	// follow it on the link (binary payload: the watermarks, the record
	// count, the cut flag, the frames' byte length and a trace ID).
	OpReplBatch Op = 18
	// OpReplAck answers one batch (binary payload: a kind, the position,
	// and an error message).
	OpReplAck Op = 19

	// opMax is one past the last defined op.
	opMax = 20
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpClicks:
		return "clicks"
	case OpFlag:
		return "flag"
	case OpSubscribe:
		return "subscribe"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpPendingAdd:
		return "pending-add"
	case OpPendingTake:
		return "pending-take"
	case OpCursorAck:
		return "cursor-ack"
	case OpStreamHello:
		return "stream-hello"
	case OpStreamPublish:
		return "stream-publish"
	case OpStreamAck:
		return "stream-ack"
	case OpStreamSubscribe:
		return "stream-subscribe"
	case OpStreamDeliver:
		return "stream-deliver"
	case OpStreamConsumeAck:
		return "stream-consume-ack"
	case OpStreamCredit:
		return "stream-credit"
	case OpReplPosition:
		return "repl-position"
	case OpStreamClicks:
		return "stream-clicks"
	case OpPendingSeq:
		return "pending-seq"
	case OpReplBatch:
		return "repl-batch"
	case OpReplAck:
		return "repl-ack"
	default:
		return fmt.Sprintf("op(%d)", byte(o))
	}
}

// walOp reports whether o is a WAL op, one that may be written in
// version 2.
func (o Op) walOp() bool {
	return o >= OpClicks && o <= OpCursorAck || o == OpReplPosition || o == OpPendingSeq
}

// currentVersion is the version this binary writes o in.
func (o Op) currentVersion() byte {
	if o.walOp() {
		return VersionBinary
	}
	return VersionJSON
}

// Record is one WAL record or stream frame: an operation, the format
// version of its payload, and the payload bytes. The payload is opaque
// here; the typed decoders of payload.go are the only code that reads a
// WAL op's payload, and package reefstream reads the stream ops'.
// Records decoded from a log keep the version they were written in, so
// re-encoding one reproduces its bytes. A zero Version encodes as the
// op's current one.
type Record struct {
	Op      Op
	Version byte
	Payload []byte
}

// version resolves a zero Version to the op's current one.
func (r Record) version() byte {
	if r.Version == 0 {
		return r.Op.currentVersion()
	}
	return r.Version
}

// EncodedLen returns the full frame size of the record.
func (r Record) EncodedLen() int { return frameHeaderLen + minBodyLen + len(r.Payload) }

// AppendEncoded appends the record's frame to dst and returns the
// extended slice. The frame keeps the record's own version, so a record
// decoded from a log re-encodes to exactly its bytes.
func (r Record) AppendEncoded(dst []byte) []byte {
	dst, start := beginFrame(dst, r.version(), r.Op)
	return EndFrame(append(dst, r.Payload...), start)
}

// BeginFrame appends the head of a frame of op, in the version this
// binary writes op in; the caller appends the payload straight after it,
// and EndFrame then fills in the length and CRC. It is the one frame
// writer: the WAL, the stream plane and the replication link all build
// their frames in place in dst this way, so encoding a frame allocates
// nothing beyond dst's growth.
func BeginFrame(dst []byte, op Op) ([]byte, int) {
	return beginFrame(dst, op.currentVersion(), op)
}

func beginFrame(dst []byte, version byte, op Op) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0, version, byte(op)), len(dst)
}

// EndFrame completes the frame BeginFrame started at start: everything
// appended after its head is the payload.
func EndFrame(dst []byte, start int) []byte {
	body := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// DecodeFrame decodes one frame from the front of buf without copying:
// the returned record's payload aliases buf, so it is only valid until
// the caller reuses the buffer. Stream transports use this to decode a
// frame in place before the read buffer cycles; WAL replay uses
// DecodeRecord, which copies. On error the consumed count is 0; callers
// must not read past the failure point.
func DecodeFrame(buf []byte) (Record, int, error) {
	if len(buf) < frameHeaderLen {
		return Record{}, 0, ErrTruncated
	}
	bodyLen := binary.LittleEndian.Uint32(buf[0:4])
	if bodyLen > MaxRecordLen {
		return Record{}, 0, ErrTooLarge
	}
	if bodyLen < minBodyLen {
		return Record{}, 0, ErrBadLength
	}
	if len(buf) < frameHeaderLen+int(bodyLen) {
		return Record{}, 0, ErrTruncated
	}
	body := buf[frameHeaderLen : frameHeaderLen+int(bodyLen)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return Record{}, 0, ErrChecksum
	}
	version, op := body[0], Op(body[1])
	if version != VersionJSON && version != VersionBinary {
		return Record{}, 0, fmt.Errorf("%w: %d", ErrVersion, version)
	}
	if op == 0 || op >= opMax {
		return Record{}, 0, fmt.Errorf("%w: %d", ErrUnknownOp, body[1])
	}
	if version == VersionBinary && !op.walOp() {
		return Record{}, 0, fmt.Errorf("%w: %d for %v", ErrVersion, version, op)
	}
	return Record{Op: op, Version: version, Payload: body[minBodyLen:]}, frameHeaderLen + int(bodyLen), nil
}

// FrameHeaderLen is the fixed frame prefix (length + CRC), exported for
// stream readers that peek the header before the body arrives.
const FrameHeaderLen = frameHeaderLen

// FrameBodyLen reads a frame header's body length without validating
// it; callers bound it against MaxRecordLen like DecodeFrame does.
func FrameBodyLen(hdr []byte) int {
	return int(binary.LittleEndian.Uint32(hdr[0:4]))
}

// ReadFrame reads exactly one frame from r into *buf (grown and reused
// across calls) and decodes it zero-copy: the returned record's payload
// aliases *buf and is only valid until the next call. It is the one
// frame reader of the connections that speak this codec, the stream
// plane and the replication link alike.
func ReadFrame(r io.Reader, buf *[]byte) (Record, error) {
	if cap(*buf) < frameHeaderLen {
		*buf = make([]byte, frameHeaderLen, 4096)
	}
	hdr := (*buf)[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Record{}, err
	}
	bodyLen := FrameBodyLen(hdr)
	if bodyLen > MaxRecordLen {
		return Record{}, ErrTooLarge
	}
	total := frameHeaderLen + bodyLen
	if cap(*buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		*buf = grown
	}
	frame := (*buf)[:total]
	if _, err := io.ReadFull(r, frame[frameHeaderLen:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	rec, _, err := DecodeFrame(frame)
	return rec, err
}

// DecodeRecord decodes one frame from the front of buf. It returns the
// record (with the payload copied out of buf), the number of bytes
// consumed, and a typed error.
func DecodeRecord(buf []byte) (Record, int, error) {
	rec, n, err := DecodeFrame(buf)
	if err != nil {
		return Record{}, 0, err
	}
	payload := make([]byte, len(rec.Payload))
	copy(payload, rec.Payload)
	rec.Payload = payload
	return rec, n, nil
}

// Replay decodes records from the front of data until it is exhausted or
// a record fails to decode. It returns the intact prefix and the typed
// error that stopped the scan (nil when the log ends cleanly). A torn or
// corrupt record never discards the records before it — this is the
// "stop cleanly at the first torn record" recovery rule.
func Replay(data []byte) ([]Record, error) {
	var out []Record
	for len(data) > 0 {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return out, err
		}
		out = append(out, rec)
		data = data[n:]
	}
	return out, nil
}

// AppendRun appends the frames of run to dst, one after another: the
// body of a snapshot file and of a resync cut, which Replay reads back.
func AppendRun(dst []byte, run []Record) []byte {
	for _, r := range run {
		dst = r.AppendEncoded(dst)
	}
	return dst
}

// ---- Operation payloads ----
//
// The payload types of the WAL ops. payload.go encodes them (version 2,
// binary) and decodes them (version 2, and the JSON of version 1, which
// the struct tags describe).

// ClicksPayload is the OpClicks payload.
type ClicksPayload struct {
	Clicks []attention.Click `json:"clicks"`
}

// FlagPayload is the OpFlag payload. Flag is the store.Flag bitmask,
// carried as an int to keep this package below the store layer.
type FlagPayload struct {
	Host string `json:"host"`
	Flag int    `json:"flag"`
}

// SubscriptionState describes one live subscription (OpSubscribe /
// OpUnsubscribe payloads and the snapshot's subscription table). Filter
// is parser syntax (eventalg.Parse) with declaration order preserved, so
// recovered subscriptions render exactly the filter text the originals
// did.
type SubscriptionState struct {
	User    string    `json:"user"`
	Kind    string    `json:"kind"`
	FeedURL string    `json:"feed_url,omitempty"`
	Filter  string    `json:"filter,omitempty"`
	Reason  string    `json:"reason,omitempty"`
	At      time.Time `json:"at"`
	// Delivery carries the reliable-delivery configuration for
	// at-least-once subscriptions. Nil for best-effort subscriptions and
	// in every record written before the reliable-delivery tier existed,
	// so old WALs decode unchanged.
	Delivery *DeliveryState `json:"delivery,omitempty"`
}

// DeliveryState is the durable form of a subscription's reliable-
// delivery configuration. Records written when subscriptions still took
// an advisory "ordering_key" carry that key too; decoding ignores it.
type DeliveryState struct {
	Guarantee string `json:"guarantee"`
	// AckTimeoutMS and MaxAttempts are zero when the subscription uses
	// the deployment defaults.
	AckTimeoutMS int64 `json:"ack_timeout_ms,omitempty"`
	MaxAttempts  int   `json:"max_attempts,omitempty"`
}

// CursorAckPayload is the OpCursorAck payload: one cumulative-cursor
// advance for a reliable subscription. ID is the subscription's stable
// identifier (feed URL or canonical filter).
type CursorAckPayload struct {
	User string    `json:"user"`
	ID   string    `json:"id"`
	Seq  int64     `json:"seq"`
	At   time.Time `json:"at,omitzero"`
}

// CursorState is one subscription's cursor in the snapshot schema.
type CursorState struct {
	User  string `json:"user"`
	ID    string `json:"id"`
	Acked int64  `json:"acked"`
}

// TermState is one weighted profile term of a content recommendation.
type TermState struct {
	Term  string  `json:"term"`
	Score float64 `json:"score"`
}

// RecommendationState is the durable form of a recommendation.
type RecommendationState struct {
	Kind    string      `json:"kind"`
	User    string      `json:"user"`
	FeedURL string      `json:"feed_url,omitempty"`
	Filter  string      `json:"filter,omitempty"`
	Reason  string      `json:"reason,omitempty"`
	At      time.Time   `json:"at"`
	Terms   []TermState `json:"terms,omitempty"`
}

// PendingAddPayload is the OpPendingAdd payload. ID is the ledger ID the
// live system assigned, so recovery reproduces identical IDs.
type PendingAddPayload struct {
	User string              `json:"user"`
	ID   string              `json:"id"`
	Seq  int64               `json:"seq"`
	Rec  RecommendationState `json:"rec"`
}

// PendingTakePayload is the OpPendingTake payload. Accepted records
// whether the recommendation was executed (accept) or dropped (reject);
// At is the decision time, so replaying a reject re-drives the negative
// feedback with its original timestamp.
type PendingTakePayload struct {
	User     string    `json:"user"`
	ID       string    `json:"id"`
	Accepted bool      `json:"accepted"`
	At       time.Time `json:"at,omitzero"`
}

// State is the full durable deployment state at one point in the
// operation stream, as a deployment captures it. StateRecords turns it
// into the run of records that rebuilds it, which is what a snapshot
// file and a resync cut hold. The JSON tags describe the version 1
// snapshot files older releases wrote, which are still read.
type State struct {
	Version       int                 `json:"version"`
	Clicks        []attention.Click   `json:"clicks,omitempty"`
	Flags         map[string]int      `json:"flags,omitempty"`
	Subscriptions []SubscriptionState `json:"subscriptions,omitempty"`
	Pending       []PendingAddPayload `json:"pending,omitempty"`
	// PendingSeq is the ledger's ID counter, restored so IDs assigned
	// after recovery never collide with live pending IDs.
	PendingSeq int64 `json:"pending_seq,omitempty"`
	// Cursors lists every reliable subscription's cumulative delivery
	// cursor, sorted by (user, id) for deterministic snapshots. Absent in
	// snapshots written before the reliable-delivery tier existed.
	Cursors []CursorState `json:"cursors,omitempty"`
	// ReplPositions lists the replication positions this node had applied
	// at the cut, sorted by source. Absent on nodes that never received a
	// replication stream.
	ReplPositions []ReplPosition `json:"repl_positions,omitempty"`
}

// ReplPosition is the OpReplPosition payload and a row of the snapshot's
// position table: the receiver has applied Source's stream of epoch
// Epoch through sequence Applied.
type ReplPosition struct {
	Source  string `json:"source"`
	Epoch   int64  `json:"epoch"`
	Applied int64  `json:"applied"`
}
