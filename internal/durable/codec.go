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
// take the buffer and return the value plus the unread rest; they fail
// only with ErrPayload, and they never allocate from a length they read.
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

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// reader decodes one version-2 payload front to back. The first failure
// sticks: later reads return zero values, and finish reports it. Fields
// of a struct literal decode in the order the literal lists them, since
// Go evaluates the calls left to right.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrPayload, fmt.Sprintf(format, args...))
	}
	r.buf = nil
}

func (r *reader) uvarint() uint64 {
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

// varint reads a zigzag varint, the encoding binary.AppendVarint writes.
func (r *reader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) int() int { return int(r.varint()) }

func (r *reader) bytes() []byte {
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

func (r *reader) string() string { return string(r.bytes()) }

// stringLike reads a string, returning prev itself when the bytes are
// equal: a batch's consecutive clicks by one user share one string.
func (r *reader) stringLike(prev string) string {
	b := r.bytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

func (r *reader) bool() bool {
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

func (r *reader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

// time reads what appendTime writes and resolves the zone as decoding
// the RFC 3339 text of the JSON payloads does: offset 0 is UTC, the
// local zone's offset at that instant is time.Local, and any other
// offset is an unnamed fixed zone.
func (r *reader) time() time.Time {
	sec, nsec, offset := r.varint(), r.uvarint(), r.varint()
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

// count reads a count prefix whose items take at least minLen bytes
// each, refusing a count the remaining bytes cannot hold.
func (r *reader) count(minLen int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)/minLen) {
		r.fail("%d items in %d bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// finish reports the first failure, or trailing bytes after the payload.
func (r *reader) finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}
