package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"reef/internal/attention"
)

func sampleRecords() []Record {
	return []Record{
		ClicksRecord([]attention.Click{
			{User: "u1", URL: "http://s1.test/a", At: time.Unix(1136073600, 0).UTC()},
			{User: "u2", URL: "http://s2.test/b", At: time.Unix(1136073660, 0).UTC(), FromEvent: true},
		}),
		FlagRecord("ads.test", 1),
		SubscribeRecord(SubscriptionState{
			User: "u1", Kind: "subscribe-feed", FeedURL: "http://s1.test/feed.xml",
			Filter: `feed = "http://s1.test/feed.xml" and type = "feed-item"`,
			At:     time.Unix(1136073700, 0).UTC(),
		}),
		PendingAddRecord(PendingAddPayload{
			User: "u2", ID: "r7", Seq: 7,
			Rec: RecommendationState{Kind: "subscribe-feed", User: "u2", FeedURL: "http://s2.test/feed.xml"},
		}),
		PendingTakeRecord(PendingTakePayload{User: "u2", ID: "r7", Accepted: true}),
	}
}

// TestRecordRoundTrip pins the frame encoding: every op encodes and
// decodes to an identical record, one frame after another.
func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for _, r := range recs {
		buf = r.AppendEncoded(buf)
	}
	got, err := Replay(buf)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("Replay returned %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i].Op != r.Op || string(got[i].Payload) != string(r.Payload) {
			t.Errorf("record %d: got %v %q, want %v %q", i, got[i].Op, got[i].Payload, r.Op, r.Payload)
		}
	}
}

// TestDecodeTypedErrors drives every corruption class through the decoder
// and checks the typed error (and that no prefix record is lost).
func TestDecodeTypedErrors(t *testing.T) {
	good := FlagRecord("h.test", 2)
	frame := good.AppendEncoded(nil)

	tests := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty suffix is clean", func(b []byte) []byte { return b }, nil},
		{"torn header", func(b []byte) []byte { return append(b, 0x01, 0x02, 0x03) }, ErrTruncated},
		{"torn body", func(b []byte) []byte {
			return append(b, good.AppendEncoded(nil)[:len(frame)-3]...)
		}, ErrTruncated},
		{"flipped CRC byte", func(b []byte) []byte {
			bad := good.AppendEncoded(nil)
			bad[4] ^= 0xFF
			return append(b, bad...)
		}, ErrChecksum},
		{"flipped payload byte", func(b []byte) []byte {
			bad := good.AppendEncoded(nil)
			bad[len(bad)-1] ^= 0x01
			return append(b, bad...)
		}, ErrChecksum},
		{"oversized length", func(b []byte) []byte {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordLen+1)
			return append(b, hdr[:]...)
		}, ErrTooLarge},
		{"undersized length", func(b []byte) []byte {
			var hdr [9]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 1)
			return append(b, hdr[:]...)
		}, ErrBadLength},
		{"future version", func(b []byte) []byte {
			bad := good.AppendEncoded(nil)
			bad[8] = 99
			binary.LittleEndian.PutUint32(bad[4:8], crcOf(bad[8:]))
			return append(b, bad...)
		}, ErrVersion},
		{"unknown op", func(b []byte) []byte {
			bad := good.AppendEncoded(nil)
			bad[9] = 0xEE
			binary.LittleEndian.PutUint32(bad[4:8], crcOf(bad[8:]))
			return append(b, bad...)
		}, ErrUnknownOp},
		{"garbage tail", func(b []byte) []byte {
			// "REEF" read as a little-endian length is ~1.2GB.
			return append(b, []byte("REEFWAL\x01 this is not a frame")...)
		}, ErrTooLarge},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), frame...))
			recs, err := Replay(data)
			if !errors.Is(err, tc.wantErr) && !(tc.wantErr == nil && err == nil) {
				t.Fatalf("Replay error = %v, want %v", err, tc.wantErr)
			}
			if len(recs) != 1 {
				t.Fatalf("intact prefix lost: got %d records, want 1", len(recs))
			}
			if recs[0].Op != OpFlag {
				t.Errorf("prefix record op = %v, want %v", recs[0].Op, OpFlag)
			}
		})
	}
}

// crcOf recomputes a frame body's CRC so the corruption tests can craft
// frames that fail later checks than the checksum.
func crcOf(body []byte) uint32 {
	return crc32.Checksum(body, castagnoli)
}

// TestDecodeEmptyAndShort covers the degenerate inputs.
func TestDecodeEmptyAndShort(t *testing.T) {
	if recs, err := Replay(nil); err != nil || len(recs) != 0 {
		t.Errorf("Replay(nil) = %d records, %v", len(recs), err)
	}
	if _, _, err := DecodeRecord([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header error = %v, want ErrTruncated", err)
	}
}

// TestOpStrings keeps the op names stable (they appear in error messages
// and admin output).
func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpClicks: "clicks", OpFlag: "flag", OpSubscribe: "subscribe",
		OpUnsubscribe: "unsubscribe", OpPendingAdd: "pending-add",
		OpPendingTake: "pending-take", OpReplPosition: "repl-position",
		Op(42): "op(42)",
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), name)
		}
	}
}
