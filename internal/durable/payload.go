package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"reef/internal/attention"
)

// ---- Payload codec ----
//
// The constructors below write version 2: a binary payload built from
// the codec.go primitives, without reflection. The typed decoders are
// the only code that reads a WAL payload; each decodes version 2, and
// version 1 — the JSON this package wrote before — into the same value.
// A snapshot is a run of these records too (see StateRecords).
//
// Version-2 layouts, with str a uvarint-length string, time what
// appendTime writes, bool one byte 0 or 1 and f64 8 bytes LE IEEE 754:
//
//	OpClicks        [uvarint n] n × (str user, str url, time at, str referrer, bool from_event)
//	OpFlag          str host, varint flag
//	OpSubscribe,
//	OpUnsubscribe   str user, str kind, str feed_url, str filter, str reason, time at,
//	                bool has_delivery [, str guarantee, varint ack_timeout_ms, varint max_attempts]
//	OpPendingAdd    str user, str id, varint seq,
//	                rec: str kind, str user, str feed_url, str filter, str reason, time at,
//	                     [uvarint n] n × (str term, f64 score)
//	OpPendingTake   str user, str id, bool accepted, time at
//	OpCursorAck     str user, str id, varint seq, time at
//	OpReplPosition  str source, varint epoch, varint applied
//	OpPendingSeq    varint seq
//
// Every user-addressed payload starts with its user, so RecordUser
// reads one field.

// ---- Constructors ----
//
// Each sizes its buffer for the strings it holds plus fixedRoom, so a
// typical record is built in one allocation.

// fixedRoom covers a payload's length prefixes, varints and one time.
const fixedRoom = 32

// ClicksRecord builds an OpClicks record.
func ClicksRecord(batch []attention.Click) Record {
	n := binary.MaxVarintLen64
	for _, c := range batch {
		n += len(c.User) + len(c.URL) + len(c.Referrer) + fixedRoom
	}
	return Record{Op: OpClicks, Version: VersionBinary, Payload: AppendClicks(make([]byte, 0, n), batch)}
}

// AppendClicks appends the OpClicks version-2 payload of batch to dst.
// The stream plane's click frames carry exactly these bytes, so the WAL
// and the wire share one click codec.
func AppendClicks(dst []byte, batch []attention.Click) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, c := range batch {
		dst = AppendString(dst, c.User)
		dst = AppendString(dst, c.URL)
		dst = appendTime(dst, c.At)
		dst = AppendString(dst, c.Referrer)
		dst = AppendBool(dst, c.FromEvent)
	}
	return dst
}

// FlagRecord builds an OpFlag record.
func FlagRecord(host string, flag int) Record {
	p := AppendString(make([]byte, 0, len(host)+fixedRoom), host)
	return Record{Op: OpFlag, Version: VersionBinary, Payload: binary.AppendVarint(p, int64(flag))}
}

// SubscribeRecord builds an OpSubscribe record.
func SubscribeRecord(s SubscriptionState) Record { return subscriptionRecord(OpSubscribe, s) }

// UnsubscribeRecord builds an OpUnsubscribe record.
func UnsubscribeRecord(s SubscriptionState) Record { return subscriptionRecord(OpUnsubscribe, s) }

func subscriptionRecord(op Op, s SubscriptionState) Record {
	n := len(s.User) + len(s.Kind) + len(s.FeedURL) + len(s.Filter) + len(s.Reason) + 2*fixedRoom
	p := AppendString(make([]byte, 0, n), s.User)
	p = AppendString(p, s.Kind)
	p = AppendString(p, s.FeedURL)
	p = AppendString(p, s.Filter)
	p = AppendString(p, s.Reason)
	p = appendTime(p, s.At)
	p = AppendBool(p, s.Delivery != nil)
	if d := s.Delivery; d != nil {
		p = AppendString(p, d.Guarantee)
		p = binary.AppendVarint(p, d.AckTimeoutMS)
		p = binary.AppendVarint(p, int64(d.MaxAttempts))
	}
	return Record{Op: op, Version: VersionBinary, Payload: p}
}

// PendingAddRecord builds an OpPendingAdd record.
func PendingAddRecord(a PendingAddPayload) Record {
	r := a.Rec
	n := len(a.User) + len(a.ID) + len(r.Kind) + len(r.User) + len(r.FeedURL) + len(r.Filter) + len(r.Reason) + 2*fixedRoom
	for _, t := range r.Terms {
		n += len(t.Term) + 10
	}
	p := AppendString(make([]byte, 0, n), a.User)
	p = AppendString(p, a.ID)
	p = binary.AppendVarint(p, a.Seq)
	p = AppendString(p, r.Kind)
	p = AppendString(p, r.User)
	p = AppendString(p, r.FeedURL)
	p = AppendString(p, r.Filter)
	p = AppendString(p, r.Reason)
	p = appendTime(p, r.At)
	p = binary.AppendUvarint(p, uint64(len(r.Terms)))
	for _, t := range r.Terms {
		p = AppendString(p, t.Term)
		p = appendFloat64(p, t.Score)
	}
	return Record{Op: OpPendingAdd, Version: VersionBinary, Payload: p}
}

// PendingTakeRecord builds an OpPendingTake record.
func PendingTakeRecord(t PendingTakePayload) Record {
	p := AppendString(make([]byte, 0, len(t.User)+len(t.ID)+fixedRoom), t.User)
	p = AppendString(p, t.ID)
	p = AppendBool(p, t.Accepted)
	return Record{Op: OpPendingTake, Version: VersionBinary, Payload: appendTime(p, t.At)}
}

// CursorAckRecord builds an OpCursorAck record.
func CursorAckRecord(c CursorAckPayload) Record {
	p := AppendString(make([]byte, 0, len(c.User)+len(c.ID)+fixedRoom), c.User)
	p = AppendString(p, c.ID)
	p = binary.AppendVarint(p, c.Seq)
	return Record{Op: OpCursorAck, Version: VersionBinary, Payload: appendTime(p, c.At)}
}

// ReplPositionRecord builds an OpReplPosition record.
func ReplPositionRecord(rp ReplPosition) Record {
	p := AppendString(make([]byte, 0, len(rp.Source)+fixedRoom), rp.Source)
	p = binary.AppendVarint(p, rp.Epoch)
	return Record{Op: OpReplPosition, Version: VersionBinary, Payload: binary.AppendVarint(p, rp.Applied)}
}

// clicksChunk bounds the estimated payload of one OpClicks record of a
// snapshot run, well below MaxRecordLen.
const clicksChunk = 1 << 20

// StateRecords returns the run of records that rebuilds st when replayed
// in order, as a log prefix would: its clicks in OpClicks batches, one
// OpFlag per host in host order, the subscriptions, then their cursors,
// the pending recommendations, the pending-ID counter and the
// replication positions. A snapshot file and a resync cut are this run.
func StateRecords(st *State) []Record {
	var run []Record
	for clicks := st.Clicks; len(clicks) > 0; {
		n, size := 0, 0
		for ; n < len(clicks) && size < clicksChunk; n++ {
			size += len(clicks[n].User) + len(clicks[n].URL) + len(clicks[n].Referrer) + fixedRoom
		}
		run = append(run, ClicksRecord(clicks[:n]))
		clicks = clicks[n:]
	}
	for _, host := range slices.Sorted(maps.Keys(st.Flags)) {
		run = append(run, FlagRecord(host, st.Flags[host]))
	}
	for _, s := range st.Subscriptions {
		run = append(run, SubscribeRecord(s))
	}
	for _, c := range st.Cursors {
		run = append(run, CursorAckRecord(CursorAckPayload{User: c.User, ID: c.ID, Seq: c.Acked}))
	}
	for _, p := range st.Pending {
		run = append(run, PendingAddRecord(p))
	}
	if st.PendingSeq > 0 {
		run = append(run, PendingSeqRecord(st.PendingSeq))
	}
	for _, p := range st.ReplPositions {
		run = append(run, ReplPositionRecord(p))
	}
	return run
}

// PendingSeqRecord builds an OpPendingSeq record.
func PendingSeqRecord(seq int64) Record {
	return Record{Op: OpPendingSeq, Version: VersionBinary, Payload: binary.AppendVarint(nil, seq)}
}

// ---- Typed decoders ----

// decodePayload decodes rec's payload into a T: version 1 as JSON,
// version 2 with bin. rec.Op must be one of ops. Every failure is
// ErrPayload, or ErrVersion for a version no frame decode returns.
func decodePayload[T any](rec Record, bin func(*Reader) T, ops ...Op) (T, error) {
	var zero T
	if !slices.Contains(ops, rec.Op) {
		return zero, fmt.Errorf("%w: %v record, want %v", ErrPayload, rec.Op, ops[0])
	}
	switch rec.version() {
	case VersionJSON:
		var p T
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return zero, fmt.Errorf("%w: %v payload: %v", ErrPayload, rec.Op, err)
		}
		return p, nil
	case VersionBinary:
		r := NewReader(rec.Payload)
		p := bin(&r)
		if err := r.Finish(); err != nil {
			return zero, fmt.Errorf("%v payload: %w", rec.Op, err)
		}
		return p, nil
	}
	return zero, fmt.Errorf("%w: %d", ErrVersion, rec.Version)
}

// minClickLen is the fewest bytes one encoded click takes: three empty
// strings, a three-byte time and a bool.
const minClickLen = 7

// DecodeClicks decodes an OpClicks record.
func DecodeClicks(rec Record) (ClicksPayload, error) {
	return decodePayload(rec, func(r *Reader) ClicksPayload {
		var p ClicksPayload
		n := r.Count(minClickLen)
		if n > 0 {
			p.Clicks = make([]attention.Click, 0, n)
		}
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			c := attention.Click{User: r.stringLike(prev), URL: r.String(), At: r.Time(), Referrer: r.String(), FromEvent: r.Bool()}
			p.Clicks = append(p.Clicks, c)
			prev = c.User
		}
		return p
	}, OpClicks)
}

// ClickUsers returns the user of every click in an OpClicks record, in
// order: what a replication sender routes a batch on. A version-2
// payload's other fields are skipped, not decoded into strings, and
// consecutive clicks by one user share one string.
func ClickUsers(rec Record) ([]string, error) {
	if rec.Op == OpClicks && rec.version() == VersionJSON {
		p, err := DecodeClicks(rec)
		users := make([]string, len(p.Clicks))
		for i, c := range p.Clicks {
			users[i] = c.User
		}
		return users, err
	}
	return decodePayload(rec, func(r *Reader) []string {
		var users []string
		n := r.Count(minClickLen)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			prev = r.stringLike(prev)
			r.Bytes()
			r.Time()
			r.Bytes()
			r.Bool()
			users = append(users, prev)
		}
		return users
	}, OpClicks)
}

// DecodeFlag decodes an OpFlag record.
func DecodeFlag(rec Record) (FlagPayload, error) {
	return decodePayload(rec, func(r *Reader) FlagPayload {
		return FlagPayload{Host: r.String(), Flag: r.Int()}
	}, OpFlag)
}

// DecodeSubscription decodes an OpSubscribe or OpUnsubscribe record.
// Delivery stays nil unless the record carries one.
func DecodeSubscription(rec Record) (SubscriptionState, error) {
	return decodePayload(rec, func(r *Reader) SubscriptionState {
		s := SubscriptionState{User: r.String(), Kind: r.String(), FeedURL: r.String(), Filter: r.String(), Reason: r.String(), At: r.Time()}
		if r.Bool() {
			s.Delivery = &DeliveryState{Guarantee: r.String(), AckTimeoutMS: r.Varint(), MaxAttempts: r.Int()}
		}
		return s
	}, OpSubscribe, OpUnsubscribe)
}

// DecodePendingAdd decodes an OpPendingAdd record.
func DecodePendingAdd(rec Record) (PendingAddPayload, error) {
	return decodePayload(rec, func(r *Reader) PendingAddPayload {
		p := PendingAddPayload{User: r.String(), ID: r.String(), Seq: r.Varint()}
		p.Rec = RecommendationState{Kind: r.String(), User: r.String(), FeedURL: r.String(), Filter: r.String(), Reason: r.String(), At: r.Time()}
		n := r.Count(9) // an empty term and its score
		for i := 0; i < n && r.err == nil; i++ {
			p.Rec.Terms = append(p.Rec.Terms, TermState{Term: r.String(), Score: r.Float64()})
		}
		return p
	}, OpPendingAdd)
}

// DecodePendingTake decodes an OpPendingTake record.
func DecodePendingTake(rec Record) (PendingTakePayload, error) {
	return decodePayload(rec, func(r *Reader) PendingTakePayload {
		return PendingTakePayload{User: r.String(), ID: r.String(), Accepted: r.Bool(), At: r.Time()}
	}, OpPendingTake)
}

// DecodeCursorAck decodes an OpCursorAck record.
func DecodeCursorAck(rec Record) (CursorAckPayload, error) {
	return decodePayload(rec, func(r *Reader) CursorAckPayload {
		return CursorAckPayload{User: r.String(), ID: r.String(), Seq: r.Varint(), At: r.Time()}
	}, OpCursorAck)
}

// DecodeReplPosition decodes an OpReplPosition record.
func DecodeReplPosition(rec Record) (ReplPosition, error) {
	return decodePayload(rec, func(r *Reader) ReplPosition {
		return ReplPosition{Source: r.String(), Epoch: r.Varint(), Applied: r.Varint()}
	}, OpReplPosition)
}

// DecodePendingSeq decodes an OpPendingSeq record.
func DecodePendingSeq(rec Record) (int64, error) {
	return decodePayload(rec, (*Reader).Varint, OpPendingSeq)
}

// RecordUser returns the user of a user-addressed record — a subscribe,
// unsubscribe, pending or cursor record — reading no further than that
// field of a version-2 payload. Clicks carry one user per click (see
// ClickUsers); flags and positions carry none.
func RecordUser(rec Record) (string, error) {
	type userOnly struct {
		User string `json:"user"`
	}
	p, err := decodePayload(rec, func(r *Reader) userOnly {
		u := userOnly{User: r.String()}
		r.buf = nil // the rest is the op's own business
		return u
	}, OpSubscribe, OpUnsubscribe, OpPendingAdd, OpPendingTake, OpCursorAck)
	return p.User, err
}
