package durable

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestCursorRecordRoundTrip exercises the second record family through
// the frame codec: encode, decode, payload fidelity.
func TestCursorRecordRoundTrip(t *testing.T) {
	at := time.Unix(1136073600, 0).UTC()
	rec := CursorAckRecord(CursorAckPayload{User: "bob", ID: "http://h.test/f", Seq: 42, At: at})
	if rec.Op != OpCursorAck {
		t.Fatalf("op = %v, want %v", rec.Op, OpCursorAck)
	}
	if got := rec.Op.String(); got != "cursor-ack" {
		t.Fatalf("op name = %q", got)
	}
	frame := rec.AppendEncoded(nil)
	dec, n, err := DecodeRecord(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	p, err := DecodeCursorAck(dec)
	if err != nil {
		t.Fatalf("payload: %v", err)
	}
	if p.User != "bob" || p.ID != "http://h.test/f" || p.Seq != 42 || !p.At.Equal(at) {
		t.Fatalf("round trip lost data: %+v", p)
	}
}

// TestCorruptCursorRecordTypedError flips bytes in an encoded cursor
// record and asserts every corruption is rejected with a typed error —
// never a panic, never an untyped error, never a silent success.
func TestCorruptCursorRecordTypedError(t *testing.T) {
	frame := CursorAckRecord(CursorAckPayload{User: "bob", ID: "f", Seq: 7}).AppendEncoded(nil)
	for i := range frame {
		dirty := append([]byte(nil), frame...)
		dirty[i] ^= 0xFF
		_, _, err := DecodeRecord(dirty)
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		typed := false
		for _, want := range fuzzTypedErrors {
			if errors.Is(err, want) {
				typed = true
				break
			}
		}
		if !typed {
			t.Fatalf("flipping byte %d returned untyped error %v", i, err)
		}
	}
	// Truncations anywhere in the frame are typed too.
	for i := 0; i < len(frame); i++ {
		if _, _, err := DecodeRecord(frame[:i]); !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrBadLength) && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("truncation at %d returned %v", i, err)
		}
	}
}

// TestSubscriptionStateDeliveryOptional pins the compatibility contract:
// records written before the reliable-delivery tier (no "delivery" key)
// decode with a nil Delivery, records that still carry the retired
// "ordering_key" decode without it, and the field survives a round trip
// when present.
func TestSubscriptionStateDeliveryOptional(t *testing.T) {
	var old SubscriptionState
	if err := json.Unmarshal([]byte(`{"user":"a","kind":"subscribe-feed","at":"2006-01-01T00:00:00Z"}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Delivery != nil {
		t.Fatalf("legacy payload grew a delivery config: %+v", old.Delivery)
	}
	var keyed SubscriptionState
	if err := json.Unmarshal([]byte(`{"user":"a","kind":"subscribe-feed","at":"2006-01-01T00:00:00Z",`+
		`"delivery":{"guarantee":"at_least_once","ordering_key":"feed","max_attempts":2}}`), &keyed); err != nil {
		t.Fatalf("payload with the retired ordering_key: %v", err)
	}
	if want := (DeliveryState{Guarantee: "at_least_once", MaxAttempts: 2}); keyed.Delivery == nil || *keyed.Delivery != want {
		t.Fatalf("payload with the retired ordering_key decoded to %+v, want %+v", keyed.Delivery, want)
	}
	in := SubscriptionState{
		User: "a", Kind: "subscribe-feed", FeedURL: "http://h.test/f", At: time.Unix(0, 0).UTC(),
		Delivery: &DeliveryState{Guarantee: "at_least_once", AckTimeoutMS: 100, MaxAttempts: 2},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SubscriptionState
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Delivery == nil || *out.Delivery != *in.Delivery {
		t.Fatalf("delivery config did not round trip: %+v", out.Delivery)
	}
}
