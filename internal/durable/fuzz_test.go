package durable

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"reef/internal/attention"
)

// fuzzTypedErrors is the closed set of errors the decoder may return.
// Anything else (or a panic) is a bug the fuzzer should surface.
var fuzzTypedErrors = []error{
	ErrTruncated, ErrChecksum, ErrTooLarge, ErrBadLength, ErrVersion, ErrUnknownOp,
}

// FuzzWALDecode hammers the frame decoder with arbitrary bytes. The
// contract under test: never panic, never allocate beyond MaxRecordLen,
// fail only with a typed error, and decode a valid prefix losslessly —
// re-encoding the decoded records must reproduce the consumed bytes, so
// a recovered WAL can always be rewritten intact.
func FuzzWALDecode(f *testing.F) {
	// A clean two-record log.
	var clean []byte
	clean = ClicksRecord([]attention.Click{{User: "u", URL: "http://h.test/p", At: time.Unix(0, 0).UTC()}}).AppendEncoded(clean)
	clean = FlagRecord("h.test", 3).AppendEncoded(clean)
	f.Add(clean)
	// The same log torn mid-record.
	f.Add(clean[:len(clean)-4])
	// A flipped CRC byte.
	flipped := append([]byte(nil), clean...)
	flipped[4] ^= 0x10
	f.Add(flipped)
	// A flipped payload byte (checksum must catch it).
	dirty := append([]byte(nil), clean...)
	dirty[len(dirty)-2] ^= 0x40
	f.Add(dirty)
	// Garbage, empty, and adversarial lengths.
	f.Add([]byte("not a log at all"))
	f.Add([]byte{})
	huge := make([]byte, 12)
	binary.LittleEndian.PutUint32(huge[0:4], MaxRecordLen+1)
	f.Add(huge)
	tiny := make([]byte, 12)
	binary.LittleEndian.PutUint32(tiny[0:4], 1)
	f.Add(tiny)
	// The cursor record family: a reliable subscribe followed by two
	// cumulative cursor advances, clean and with a flipped payload byte.
	var cursors []byte
	cursors = SubscribeRecord(SubscriptionState{
		User: "b", Kind: "subscribe-feed", FeedURL: "http://h.test/f",
		At:       time.Unix(0, 0).UTC(),
		Delivery: &DeliveryState{Guarantee: "at_least_once", MaxAttempts: 3},
	}).AppendEncoded(cursors)
	cursors = CursorAckRecord(CursorAckPayload{User: "b", ID: "http://h.test/f", Seq: 4}).AppendEncoded(cursors)
	cursors = CursorAckRecord(CursorAckPayload{User: "b", ID: "http://h.test/f", Seq: 9}).AppendEncoded(cursors)
	f.Add(cursors)
	cursorsDirty := append([]byte(nil), cursors...)
	cursorsDirty[len(cursorsDirty)-3] ^= 0x20
	f.Add(cursorsDirty)
	// The stream frame family: a hello, a publish frame, and an ack —
	// the ingest wire protocol shares this codec, so the fuzzer covers
	// both the WAL and the wire. Clean, torn mid-frame, and corrupted.
	var stream []byte
	stream = Record{Op: OpStreamHello, Payload: []byte(`{"node":"n1","proto":1}`)}.AppendEncoded(stream)
	pub := binary.LittleEndian.AppendUint64(nil, 7) // seq
	pub = append(pub, 1, 3, 's', 'r', 'c')          // 1 event, source "src"
	stream = Record{Op: OpStreamPublish, Payload: pub}.AppendEncoded(stream)
	ack := binary.LittleEndian.AppendUint64(nil, 7)
	ack = binary.LittleEndian.AppendUint64(ack, 2)
	ack = append(ack, 0, 0) // status ok, empty message
	stream = Record{Op: OpStreamAck, Payload: ack}.AppendEncoded(stream)
	f.Add(stream)
	f.Add(stream[:len(stream)-5])
	streamDirty := append([]byte(nil), stream...)
	streamDirty[9] ^= 0x01 // flip the version byte of the first frame
	f.Add(streamDirty)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Replay(data)
		if err != nil {
			typed := false
			for _, want := range fuzzTypedErrors {
				if errors.Is(err, want) {
					typed = true
					break
				}
			}
			if !typed {
				t.Fatalf("Replay returned untyped error %v", err)
			}
		}
		// Lossless prefix: re-encoding reproduces the consumed bytes.
		var re []byte
		for _, r := range recs {
			re = r.AppendEncoded(re)
		}
		if len(re) > len(data) || string(re) != string(data[:len(re)]) {
			t.Fatalf("re-encoded prefix diverges after %d records", len(recs))
		}
		// Decoding one record at a time must agree with Replay, and the
		// zero-copy frame decode must agree with the copying one.
		rest := data
		for i := 0; ; i++ {
			rec, n, derr := DecodeRecord(rest)
			frame, fn, ferr := DecodeFrame(rest)
			if (derr == nil) != (ferr == nil) || n != fn {
				t.Fatalf("DecodeRecord/DecodeFrame disagree at %d: (%v,%d) vs (%v,%d)", i, derr, n, ferr, fn)
			}
			if derr != nil {
				if i != len(recs) {
					t.Fatalf("DecodeRecord stopped at %d, Replay at %d", i, len(recs))
				}
				break
			}
			if rec.Op != recs[i].Op || frame.Op != rec.Op {
				t.Fatalf("record %d op mismatch", i)
			}
			if string(frame.Payload) != string(rec.Payload) {
				t.Fatalf("record %d payload mismatch between frame and record decode", i)
			}
			rest = rest[n:]
		}
	})
}

// payloadCodecs maps each WAL op to its typed decoder followed by the
// constructor that encodes the decoded value again, plus the user
// RecordUser must report for it ("" for ops without one).
var payloadCodecs = map[Op]func(Record) (Record, string, error){
	OpClicks: func(r Record) (Record, string, error) {
		p, err := DecodeClicks(r)
		return ClicksRecord(p.Clicks), "", err
	},
	OpFlag: func(r Record) (Record, string, error) {
		p, err := DecodeFlag(r)
		return FlagRecord(p.Host, p.Flag), "", err
	},
	OpSubscribe: func(r Record) (Record, string, error) {
		p, err := DecodeSubscription(r)
		return SubscribeRecord(p), p.User, err
	},
	OpUnsubscribe: func(r Record) (Record, string, error) {
		p, err := DecodeSubscription(r)
		return UnsubscribeRecord(p), p.User, err
	},
	OpPendingAdd: func(r Record) (Record, string, error) {
		p, err := DecodePendingAdd(r)
		return PendingAddRecord(p), p.User, err
	},
	OpPendingTake: func(r Record) (Record, string, error) {
		p, err := DecodePendingTake(r)
		return PendingTakeRecord(p), p.User, err
	},
	OpCursorAck: func(r Record) (Record, string, error) {
		p, err := DecodeCursorAck(r)
		return CursorAckRecord(p), p.User, err
	},
	OpReplPosition: func(r Record) (Record, string, error) {
		p, err := DecodeReplPosition(r)
		return ReplPositionRecord(p), "", err
	},
	OpPendingSeq: func(r Record) (Record, string, error) {
		seq, err := DecodePendingSeq(r)
		return PendingSeqRecord(seq), "", err
	},
}

// FuzzPayloadDecode hammers the typed payload decoders with arbitrary
// payload bytes under every WAL op, read as version 2 and as version-1
// JSON. The contract: never panic; fail only with ErrPayload; a
// version-2 payload that decodes re-encodes to exactly its bytes; and
// ClickUsers and RecordUser, which read only part of a payload, agree
// with the full decode wherever it succeeds.
func FuzzPayloadDecode(f *testing.F) {
	at := time.Date(2006, 1, 2, 15, 4, 5, 123, time.FixedZone("", 5*3600+45*60))
	for _, rec := range append(sampleRecords(),
		ClicksRecord([]attention.Click{{User: "u", URL: "http://h.test/p", At: at, Referrer: "r"}, {User: "u"}}),
		UnsubscribeRecord(SubscriptionState{User: "u", Kind: "subscribe-feed", At: at,
			Delivery: &DeliveryState{Guarantee: "at_least_once", AckTimeoutMS: 100, MaxAttempts: 2}}),
		PendingAddRecord(PendingAddPayload{User: "u", ID: "r1", Seq: -1, Rec: RecommendationState{
			Kind: "content-query", Terms: []TermState{{Term: "t", Score: -0.5}}}}),
		PendingTakeRecord(PendingTakePayload{User: "u", ID: "r1", At: at}),
		CursorAckRecord(CursorAckPayload{User: "b", ID: "f", Seq: 1 << 40}),
		ReplPositionRecord(ReplPosition{Source: "n1", Epoch: -3, Applied: 7}),
		PendingSeqRecord(1<<40),
	) {
		f.Add(byte(rec.Op), rec.Payload)
	}
	f.Add(byte(OpFlag), []byte(`{"host":"h.test","flag":3}`))
	f.Add(byte(OpCursorAck), []byte{0x80, 0x00})
	f.Add(byte(OpClicks), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, opByte byte, payload []byte) {
		op := Op(opByte)
		codec, ok := payloadCodecs[op]
		if !ok {
			return
		}
		for _, version := range []byte{VersionJSON, VersionBinary} {
			rec := Record{Op: op, Version: version, Payload: payload}
			re, user, err := codec(rec)
			if err != nil {
				if !errors.Is(err, ErrPayload) {
					t.Fatalf("%v v%d: untyped error %v", op, version, err)
				}
				continue
			}
			if version == VersionBinary && string(re.Payload) != string(payload) {
				t.Fatalf("%v v2 payload re-encodes to %x, want %x", op, re.Payload, payload)
			}
			if user != "" {
				if got, err := RecordUser(rec); err != nil || got != user {
					t.Fatalf("%v v%d: RecordUser = (%q, %v), want %q", op, version, got, err, user)
				}
			}
			if op == OpClicks {
				p, _ := DecodeClicks(rec)
				users, err := ClickUsers(rec)
				if err != nil || len(users) != len(p.Clicks) {
					t.Fatalf("v%d: ClickUsers = (%d users, %v), want %d", version, len(users), err, len(p.Clicks))
				}
				for i, c := range p.Clicks {
					if users[i] != c.User {
						t.Fatalf("v%d: ClickUsers[%d] = %q, want %q", version, i, users[i], c.User)
					}
				}
			}
		}
		// Partial reads fail only with typed errors too.
		for _, version := range []byte{VersionJSON, VersionBinary} {
			rec := Record{Op: op, Version: version, Payload: payload}
			if _, err := RecordUser(rec); err != nil && !errors.Is(err, ErrPayload) {
				t.Fatalf("RecordUser: untyped error %v", err)
			}
			if _, err := ClickUsers(rec); err != nil && !errors.Is(err, ErrPayload) {
				t.Fatalf("ClickUsers: untyped error %v", err)
			}
		}
	})
}
