package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// The binary codec shared by the WAL's version-2 payloads and the
// reefstream wire: unsigned and zigzag varints, length-prefixed bytes,
// and the fixed shapes payloads are built from. The Decode* functions
// take the buffer and return the value plus the unread rest, and Reader
// reads a whole payload with them; both fail only with ErrPayload, and
// they never allocate from a length they read.
//
// Decoding is canonical: a varint must use its shortest form, a bool
// must be 0 or 1, and a time's fields must be in range. So every
// payload that decodes re-encodes to exactly its own bytes — the same
// lossless-prefix rule the frame decoder keeps.

// AppendBytes appends b with its uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with its uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeUvarint decodes one shortest-form uvarint from the front of buf.
func DecodeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || n > 1 && buf[n-1] == 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrPayload)
	}
	return v, buf[n:], nil
}

// DecodeBytes decodes one length-prefixed byte string from the front of
// buf. The result aliases buf.
func DecodeBytes(buf []byte) ([]byte, []byte, error) {
	n, rest, err := DecodeUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: length %d exceeds remaining %d", ErrPayload, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// Time bounds. A zone offset is under a day, as RFC 3339 allows; the
// seconds bound keeps time.Unix from overflowing, so a decoded time's
// Unix() is the value read.
const (
	maxZoneOffset = 24 * 60 * 60
	maxUnixSecond = 1 << 62
)

// appendTime appends t as [varint unix seconds][uvarint nanoseconds]
// [varint zone offset seconds]. The zero time is not special: it is
// year 1 in UTC and decodes back to time.Time{}.
func appendTime(dst []byte, t time.Time) []byte {
	_, offset := t.Zone()
	dst = binary.AppendVarint(dst, t.Unix())
	dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
	return binary.AppendVarint(dst, int64(offset))
}

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// Reader decodes one binary payload front to back: a WAL op's version-2
// payload, a stream op's, or a link message's. The first failure
// sticks: later reads return zero values, and Err and Finish report it,
// always as ErrPayload. Fields of a struct literal decode in the order
// the literal lists them, since Go evaluates the calls left to right.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) Reader { return Reader{buf: payload} }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrPayload, fmt.Sprintf(format, args...))
	}
	r.buf = nil
}

// Uvarint reads a shortest-form uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, rest, err := DecodeUvarint(r.buf)
	if err != nil {
		r.err, r.buf = err, nil
		return 0
	}
	r.buf = rest
	return v
}

// Varint reads a zigzag varint, the encoding binary.AppendVarint writes.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a Varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bytes reads a length-prefixed byte string, which aliases the payload.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	b, rest, err := DecodeBytes(r.buf)
	if err != nil {
		r.err, r.buf = err, nil
		return nil
	}
	r.buf = rest
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// stringLike reads a string, returning prev itself when the bytes are
// equal: a batch's consecutive clicks by one user share one string.
func (r *Reader) stringLike(prev string) string {
	b := r.Bytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 || r.buf[0] > 1 {
		r.fail("bad bool")
		return false
	}
	b := r.buf[0] == 1
	r.buf = r.buf[1:]
	return b
}

// Float64 reads a fixed-width little-endian float64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}

// Time reads what appendTime writes and resolves the zone as decoding
// the RFC 3339 text of the JSON payloads does: offset 0 is UTC, the
// local zone's offset at that instant is time.Local, and any other
// offset is an unnamed fixed zone.
func (r *Reader) Time() time.Time {
	sec, nsec, offset := r.Varint(), r.Uvarint(), r.Varint()
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= 1e9 || offset <= -maxZoneOffset || offset >= maxZoneOffset || sec < -maxUnixSecond || sec > maxUnixSecond {
		r.fail("time out of range")
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if offset == 0 {
		return t.UTC()
	}
	if _, local := t.Zone(); local == int(offset) {
		return t
	}
	return t.In(time.FixedZone("", int(offset)))
}

// Count reads a count prefix whose items take at least minLen bytes
// each, refusing a count the remaining bytes cannot hold.
func (r *Reader) Count(minLen int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)/minLen) {
		r.fail("%d items in %d bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Rest returns the bytes not read yet, for a caller that decodes the
// rest itself; nil after a failure.
func (r *Reader) Rest() []byte { return r.buf }

// Err reports the first failure.
func (r *Reader) Err() error { return r.err }

// Finish reports the first failure, or trailing bytes after the payload.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}
