package durable

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The replication link's two messages. A sender ships each batch as one
// OpReplBatch record followed by the batch's WAL frames, exactly the
// bytes it would journal; the receiver answers every batch with one
// OpReplAck record. Both are version-1 frames, the one version of the
// wire-only ops, with binary payloads:
//
//	OpReplBatch  uvarint prev, uvarint last, uvarint count, bool cut,
//	             uvarint bytes, 16B trace
//	OpReplAck    1B kind, uvarint acked, str err

// ReplBatch heads one replicated batch: the sender's watermarks before
// and after it, its record count, whether it carries resync cut
// records, the byte length of the WAL frames that follow, and the trace
// ID both nodes record the batch under.
type ReplBatch struct {
	Prev, Last int64
	Count      int
	Cut        bool
	Bytes      int
	Trace      [16]byte
}

// ReplAckKind is a receiver's verdict on one batch.
type ReplAckKind byte

const (
	// AckOK: the batch is applied through Acked.
	AckOK ReplAckKind = iota
	// AckConflict: the batch's prev is not the receiver's position;
	// Acked is that position, which the sender adopts.
	AckConflict
	// AckError: the batch was refused for the reason in Err, and the
	// receiver closes the link.
	AckError
	ackKinds
)

// ReplAck is the OpReplAck payload.
type ReplAck struct {
	Kind  ReplAckKind
	Acked int64
	Err   string
}

// AppendReplBatch appends b's OpReplBatch frame to dst.
func AppendReplBatch(dst []byte, b ReplBatch) []byte {
	dst, start := BeginFrame(dst, OpReplBatch)
	dst = binary.AppendUvarint(dst, uint64(b.Prev))
	dst = binary.AppendUvarint(dst, uint64(b.Last))
	dst = binary.AppendUvarint(dst, uint64(b.Count))
	dst = AppendBool(dst, b.Cut)
	dst = binary.AppendUvarint(dst, uint64(b.Bytes))
	return EndFrame(append(dst, b.Trace[:]...), start)
}

// AppendReplAck appends a's OpReplAck frame to dst.
func AppendReplAck(dst []byte, a ReplAck) []byte {
	dst, start := BeginFrame(dst, OpReplAck)
	dst = binary.AppendUvarint(append(dst, byte(a.Kind)), uint64(a.Acked))
	return EndFrame(AppendString(dst, a.Err), start)
}

// DecodeReplBatch decodes an OpReplBatch record.
func DecodeReplBatch(rec Record) (ReplBatch, error) {
	r, err := linkReader(rec, OpReplBatch)
	if err != nil {
		return ReplBatch{}, err
	}
	b := ReplBatch{Prev: r.position(), Last: r.position(), Count: r.size(), Cut: r.Bool(), Bytes: r.size()}
	if r.err == nil && len(r.buf) != len(b.Trace) {
		r.fail("trace of %d bytes", len(r.buf))
	}
	copy(b.Trace[:], r.buf)
	r.buf = nil
	if err := r.Finish(); err != nil {
		return ReplBatch{}, fmt.Errorf("%v payload: %w", rec.Op, err)
	}
	return b, nil
}

// DecodeReplAck decodes an OpReplAck record.
func DecodeReplAck(rec Record) (ReplAck, error) {
	r, err := linkReader(rec, OpReplAck)
	if err != nil {
		return ReplAck{}, err
	}
	a := ReplAck{Kind: ReplAckKind(r.Byte()), Acked: r.position(), Err: r.String()}
	if r.err == nil && a.Kind >= ackKinds {
		r.fail("ack kind %d", a.Kind)
	}
	if err := r.Finish(); err != nil {
		return ReplAck{}, fmt.Errorf("%v payload: %w", rec.Op, err)
	}
	return a, nil
}

// linkReader checks a link record's op and version and returns a reader
// over its payload.
func linkReader(rec Record, op Op) (Reader, error) {
	if rec.Op != op {
		return Reader{}, fmt.Errorf("%w: %v record, want %v", ErrPayload, rec.Op, op)
	}
	if rec.version() != VersionJSON {
		return Reader{}, fmt.Errorf("%w: %d for %v", ErrVersion, rec.version(), op)
	}
	return NewReader(rec.Payload), nil
}

// position reads a uvarint that must fit an int64 stream position.
func (r *Reader) position() int64 {
	v := r.Uvarint()
	if v > math.MaxInt64 {
		r.fail("position %d out of range", v)
		return 0
	}
	return int64(v)
}

// size reads a uvarint count or length, bounded by the largest frame:
// no batch holds more records or bytes than that.
func (r *Reader) size() int {
	v := r.Uvarint()
	if v > MaxRecordLen+frameHeaderLen {
		r.fail("size %d out of range", v)
		return 0
	}
	return int(v)
}
