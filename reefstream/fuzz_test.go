package reefstream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"
	"time"
	"unsafe"

	"reef"
	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/pubsub"
	"reef/internal/trace"
)

func sampleEvents() []reef.Event {
	return []reef.Event{
		{
			Source:    "crawler-3",
			Attrs:     map[string]string{"type": "feed-item", "feed": "http://h.test/f", "title": "hello"},
			Payload:   []byte("body bytes \x00\xff"),
			Published: time.Unix(1700000000, 42).UTC(),
		},
		{Attrs: map[string]string{"k": ""}},
		{Source: "s", Attrs: map[string]string{"a": "b"}, Published: time.Time{}},
	}
}

// TestPublishCodecRoundTrip pins the binary event encoding: every field
// survives encode→decode, zero times stay zero, and the frame decodes
// from its durable envelope.
func TestPublishCodecRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var wantTr trace.ID
	copy(wantTr[:], "0123456789abcdef")
	frame := appendPublishFrame(nil, 99, EncodeEvents(evs), wantTr)
	rec, n, err := durable.DecodeFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeFrame = (%d, %v)", n, err)
	}
	if rec.Op != durable.OpStreamPublish {
		t.Fatalf("op = %v", rec.Op)
	}
	seq, tr, got, err := decodePublish(rec.Payload, nil)
	if err != nil {
		t.Fatalf("decodePublish: %v", err)
	}
	if seq != 99 {
		t.Errorf("seq = %d", seq)
	}
	if tr != wantTr {
		t.Errorf("trace = %v, want %v", tr, wantTr)
	}
	// An untraced frame decodes with a zero trace ID and is byte-for-byte
	// what the pre-trace wire produced (no trailer).
	plain := appendPublishFrame(nil, 99, EncodeEvents(evs), trace.ID{})
	if len(plain) != len(frame)-trace.IDLen {
		t.Errorf("untraced frame len = %d, want %d", len(plain), len(frame)-trace.IDLen)
	}
	rec2, _, err := durable.DecodeFrame(plain)
	if err != nil {
		t.Fatalf("DecodeFrame(plain): %v", err)
	}
	if _, tr2, _, err := decodePublish(rec2.Payload, nil); err != nil || !tr2.IsZero() {
		t.Errorf("untraced decode = (trace %v, %v), want zero trace", tr2, err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i, ev := range got {
		want := evs[i]
		if ev.Source != want.Source {
			t.Errorf("event %d source = %q, want %q", i, ev.Source, want.Source)
		}
		if got := ev.Attrs.Strings(); !maps.Equal(got, want.Attrs) {
			t.Errorf("event %d attrs = %v, want %v", i, got, want.Attrs)
		}
		if string(ev.Payload) != string(want.Payload) {
			t.Errorf("event %d payload mismatch", i)
		}
		if !ev.Published.Equal(want.Published) {
			t.Errorf("event %d published = %v, want %v", i, ev.Published, want.Published)
		}
	}
}

func TestAckCodecRoundTrip(t *testing.T) {
	for _, want := range []ack{
		{Seq: 1, Delivered: 0},
		{Seq: 1<<63 + 5, Delivered: 12345, Status: StatusInvalidArgument, Message: "reef: invalid argument: no attrs"},
		{Status: StatusUnavailable, Message: ""},
	} {
		frame := appendAckFrame(nil, want)
		rec, _, err := durable.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		got, err := decodeAck(rec.Payload)
		if err != nil {
			t.Fatalf("decodeAck: %v", err)
		}
		if got != want {
			t.Errorf("ack round trip = %+v, want %+v", got, want)
		}
	}
}

// sampleDelivered wraps the sample events in delivery metadata for the
// consume-plane codecs.
func sampleDelivered() []delivery.Delivered {
	evs := sampleEvents()
	out := make([]delivery.Delivered, len(evs))
	for i, ev := range evs {
		out[i] = delivery.Delivered{Seq: int64(i) + 10, Attempts: i + 1, Event: internalEvent(ev)}
	}
	return out
}

// encodeInternal is EncodeEvents for decoded events: the publish body
// they would travel in.
func encodeInternal(evs []pubsub.Event) []byte {
	body := binary.AppendUvarint(nil, uint64(len(evs)))
	for _, ev := range evs {
		body = appendEvent(body, ev.Source, ev.Attrs, ev.Payload, ev.Published)
	}
	return body
}

// sameEvent reports how two decoded events differ in content, or ""
// when their source, attribute set, payload and publish time agree.
func sameEvent(got, want pubsub.Event) string {
	switch {
	case got.Source != want.Source:
		return fmt.Sprintf("source %q, want %q", got.Source, want.Source)
	case !slices.Equal(got.Attrs, want.Attrs):
		return fmt.Sprintf("attrs %v, want %v", got.Attrs, want.Attrs)
	case !bytes.Equal(got.Payload, want.Payload):
		return fmt.Sprintf("payload %q, want %q", got.Payload, want.Payload)
	case !got.Published.Equal(want.Published):
		return fmt.Sprintf("published %v, want %v", got.Published, want.Published)
	}
	return ""
}

// FuzzStreamDecode extends the FuzzWALDecode contract to the stream
// payload decoders: arbitrary bytes inside a valid frame envelope must
// produce a typed error (ErrBadFrame) or a valid decode — never a
// panic, never an unbounded allocation. The consume payload is run
// through all four consume-plane decoders (subscribe, deliver,
// consume-ack, credit) with a round-trip invariant on clean decodes.
func FuzzStreamDecode(f *testing.F) {
	f.Add(EncodeEvents(sampleEvents()), appendAckFrame(nil, ack{Seq: 9, Delivered: 3})[10:], []byte{})
	// A publish body with seq prefix, as decodePublish sees it.
	pub := binary.LittleEndian.AppendUint64(nil, 7)
	pub = append(pub, EncodeEvents(sampleEvents())...)
	f.Add(pub, []byte{}, []byte{})
	// The same publish body with a 16-byte trace trailer.
	f.Add(append(append([]byte{}, pub...), []byte("0123456789abcdef")...), []byte{}, []byte{})
	// A trailer of the wrong length must be rejected, not absorbed.
	f.Add(append(append([]byte{}, pub...), []byte("0123456")...), []byte{}, []byte{})
	// Corrupt length prefix: claims more events than bytes.
	huge := binary.LittleEndian.AppendUint64(nil, 1)
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(huge, []byte("x"), []byte("x"))
	// Truncated mid-event.
	trunc := binary.LittleEndian.AppendUint64(nil, 2)
	trunc = append(trunc, EncodeEvents(sampleEvents())...)
	f.Add(trunc[:len(trunc)-9], []byte{0, 0, 0}, []byte{0, 0, 0})
	f.Add([]byte{}, []byte{}, []byte{})
	// Clean consume payloads, one per op.
	subPayload := appendSubscribeFrame(nil, subscribe{Seq: 3, CID: 1, Credit: 4096, User: "bob", SubID: "http://h.test/f"})
	f.Add([]byte{}, []byte{}, subPayload[10:])
	delPayload := appendDeliverFrame(nil, 1, sampleDelivered())
	f.Add([]byte{}, []byte{}, delPayload[10:])
	// The same deliver payload truncated mid-event.
	f.Add([]byte{}, []byte{}, delPayload[10:len(delPayload)-5])
	cackPayload := appendConsumeAckFrame(nil, consumeAck{Seq: 4, CID: 1, AckSeq: 12, Nack: true})
	f.Add([]byte{}, []byte{}, cackPayload[10:])
	creditPayload := appendCreditFrame(nil, credit{CID: 1, N: 64})
	f.Add([]byte{}, []byte{}, creditPayload[10:])

	f.Fuzz(func(t *testing.T, pubPayload, ackPayload, consumePayload []byte) {
		if seq, tr, evs, err := decodePublish(pubPayload, nil); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodePublish returned untyped error %v", err)
			}
		} else {
			// A clean decode must re-encode to an equivalent frame: the
			// re-encoded form must decode to the same events (attribute
			// order may differ, so compare decoded-to-decoded) and the
			// same trace ID.
			re := appendPublishFrame(nil, seq, encodeInternal(evs), tr)
			rec, _, derr := durable.DecodeFrame(re)
			if derr != nil {
				t.Fatalf("re-encoded frame does not decode: %v", derr)
			}
			seq2, tr2, evs2, derr := decodePublish(rec.Payload, nil)
			if derr != nil || seq2 != seq || tr2 != tr || len(evs2) != len(evs) {
				t.Fatalf("re-decode = (%d, %v, %d events, %v), want (%d, %v, %d, nil)",
					seq2, tr2, len(evs2), derr, seq, tr, len(evs))
			}
			for i := range evs {
				if diff := sameEvent(evs2[i], evs[i]); diff != "" {
					t.Fatalf("event %d re-decoded with %s", i, diff)
				}
			}
		}
		if _, err := decodeAck(ackPayload); err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("decodeAck returned untyped error %v", err)
		}

		if s, err := decodeSubscribe(consumePayload); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeSubscribe returned untyped error %v", err)
			}
		} else {
			re := appendSubscribeFrame(nil, s)
			rec, _, derr := durable.DecodeFrame(re)
			if derr != nil {
				t.Fatalf("re-encoded subscribe does not frame: %v", derr)
			}
			if s2, derr := decodeSubscribe(rec.Payload); derr != nil || s2 != s {
				t.Fatalf("subscribe re-decode = (%+v, %v), want (%+v, nil)", s2, derr, s)
			}
		}
		if cid, evs, err := decodeDeliver(consumePayload, nil, nil); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeDeliver returned untyped error %v", err)
			}
		} else {
			re := appendDeliverFrame(nil, cid, evs)
			rec, _, derr := durable.DecodeFrame(re)
			if derr != nil {
				t.Fatalf("re-encoded deliver does not frame: %v", derr)
			}
			cid2, evs2, derr := decodeDeliver(rec.Payload, nil, nil)
			if derr != nil || cid2 != cid || len(evs2) != len(evs) {
				t.Fatalf("deliver re-decode = (%d, %d events, %v), want (%d, %d, nil)",
					cid2, len(evs2), derr, cid, len(evs))
			}
			for i := range evs {
				if evs2[i].Seq != evs[i].Seq || evs2[i].Attempts != evs[i].Attempts {
					t.Fatalf("delivery %d metadata = (%d, %d), want (%d, %d)",
						i, evs2[i].Seq, evs2[i].Attempts, evs[i].Seq, evs[i].Attempts)
				}
				if diff := sameEvent(evs2[i].Event, evs[i].Event); diff != "" {
					t.Fatalf("delivery %d re-decoded with %s", i, diff)
				}
			}
		}
		if ca, err := decodeConsumeAck(consumePayload); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeConsumeAck returned untyped error %v", err)
			}
		} else {
			re := appendConsumeAckFrame(nil, ca)
			rec, _, derr := durable.DecodeFrame(re)
			if derr != nil {
				t.Fatalf("re-encoded consume-ack does not frame: %v", derr)
			}
			if ca2, derr := decodeConsumeAck(rec.Payload); derr != nil || ca2 != ca {
				t.Fatalf("consume-ack re-decode = (%+v, %v), want (%+v, nil)", ca2, derr, ca)
			}
		}
		if cr, err := decodeCredit(consumePayload); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeCredit returned untyped error %v", err)
			}
		} else {
			re := appendCreditFrame(nil, cr)
			rec, _, derr := durable.DecodeFrame(re)
			if derr != nil {
				t.Fatalf("re-encoded credit does not frame: %v", derr)
			}
			if cr2, derr := decodeCredit(rec.Payload); derr != nil || cr2 != cr {
				t.Fatalf("credit re-decode = (%+v, %v), want (%+v, nil)", cr2, derr, cr)
			}
		}
	})
}

// TestConsumeCodecRoundTrip pins the four consume-plane encodings.
func TestConsumeCodecRoundTrip(t *testing.T) {
	wantSub := subscribe{Seq: 11, CID: 3, Credit: 4096, User: "alice", SubID: "http://h.test/f"}
	rec, _, err := durable.DecodeFrame(appendSubscribeFrame(nil, wantSub))
	if err != nil || rec.Op != durable.OpStreamSubscribe {
		t.Fatalf("subscribe frame = (%v, %v)", rec.Op, err)
	}
	if got, err := decodeSubscribe(rec.Payload); err != nil || got != wantSub {
		t.Errorf("subscribe round trip = (%+v, %v), want %+v", got, err, wantSub)
	}

	wantDel := sampleDelivered()
	rec, _, err = durable.DecodeFrame(appendDeliverFrame(nil, 7, wantDel))
	if err != nil || rec.Op != durable.OpStreamDeliver {
		t.Fatalf("deliver frame = (%v, %v)", rec.Op, err)
	}
	cid, got, err := decodeDeliver(rec.Payload, nil, nil)
	if err != nil || cid != 7 || len(got) != len(wantDel) {
		t.Fatalf("deliver round trip = (%d, %d events, %v)", cid, len(got), err)
	}
	for i, d := range got {
		w := wantDel[i]
		if d.Seq != w.Seq || d.Attempts != w.Attempts || sameEvent(d.Event, w.Event) != "" {
			t.Errorf("delivery %d = %+v, want %+v", i, d, w)
		}
	}

	for _, wantCA := range []consumeAck{
		{Seq: 1, CID: 2, AckSeq: 3, Nack: false},
		{Seq: 1 << 60, CID: 1<<64 - 1, AckSeq: -1, Nack: true},
	} {
		rec, _, err = durable.DecodeFrame(appendConsumeAckFrame(nil, wantCA))
		if err != nil || rec.Op != durable.OpStreamConsumeAck {
			t.Fatalf("consume-ack frame = (%v, %v)", rec.Op, err)
		}
		if got, err := decodeConsumeAck(rec.Payload); err != nil || got != wantCA {
			t.Errorf("consume-ack round trip = (%+v, %v), want %+v", got, err, wantCA)
		}
	}

	wantCr := credit{CID: 9, N: 128}
	rec, _, err = durable.DecodeFrame(appendCreditFrame(nil, wantCr))
	if err != nil || rec.Op != durable.OpStreamCredit {
		t.Fatalf("credit frame = (%v, %v)", rec.Op, err)
	}
	if got, err := decodeCredit(rec.Payload); err != nil || got != wantCr {
		t.Errorf("credit round trip = (%+v, %v), want %+v", got, err, wantCr)
	}
}

// sampleClicks covers what the click codec must carry: times in UTC, at
// +02:00 and +05:45, in the local zone and zero; an empty referrer; a
// click from an event; consecutive clicks by one user.
func sampleClicks() []reef.Click {
	at := time.Date(2006, 1, 2, 15, 4, 5, 123456789, time.UTC)
	return []reef.Click{
		{User: "alice", URL: "http://h.test/a.html", At: at, Referrer: "http://h.test/"},
		{User: "alice", URL: "http://h.test/b.html", At: at.In(time.FixedZone("", 2*3600))},
		{User: "bob", URL: "http://h.test/c.html", At: at.In(time.FixedZone("", 5*3600+45*60)), FromEvent: true},
		{User: "bob", URL: "http://h.test/d.html", At: at.Local()},
		{User: "carol", URL: "http://h.test/e.html"},
	}
}

// clicksPayload is the OpStreamClicks payload of seq and clicks.
func clicksPayload(seq uint64, clicks []reef.Click) []byte {
	return appendClicksFrame(nil, seq, durable.AppendClicks(nil, clicks))[durable.FrameHeaderLen+2:]
}

// loadClicks64 reads the checked-in 64-click batch: the first batch a
// workload generator's user cut on its first day.
func loadClicks64(tb testing.TB) []reef.Click {
	tb.Helper()
	data, err := os.ReadFile("testdata/clicks-64.json")
	if err != nil {
		tb.Fatal(err)
	}
	var body struct {
		Clicks []reef.Click `json:"clicks"`
	}
	if err := json.Unmarshal(data, &body); err != nil || len(body.Clicks) != 64 {
		tb.Fatalf("testdata/clicks-64.json = (%d clicks, %v), want 64", len(body.Clicks), err)
	}
	return body.Clicks
}

// TestClicksCodecRoundTrip pins the clicks frame: every click field
// survives encode→decode, each time keeps its instant and its zone
// offset, the zero time stays zero, and consecutive clicks by one user
// share one decoded string.
func TestClicksCodecRoundTrip(t *testing.T) {
	want := sampleClicks()
	rec, n, err := durable.DecodeFrame(appendClicksFrame(nil, 77, durable.AppendClicks(nil, want)))
	if err != nil || rec.Op != durable.OpStreamClicks || rec.Version != durable.VersionJSON {
		t.Fatalf("DecodeFrame = (%v v%d, %d, %v)", rec.Op, rec.Version, n, err)
	}
	seq, got, err := decodeClicksFrame(rec.Payload)
	if err != nil || seq != 77 || len(got) != len(want) {
		t.Fatalf("decodeClicksFrame = (%d, %d clicks, %v), want (77, %d)", seq, len(got), err, len(want))
	}
	for i, g := range got {
		w := want[i]
		_, gotOff := g.At.Zone()
		_, wantOff := w.At.Zone()
		if g.User != w.User || g.URL != w.URL || g.Referrer != w.Referrer || g.FromEvent != w.FromEvent ||
			!g.At.Equal(w.At) || gotOff != wantOff || g.At.IsZero() != w.At.IsZero() {
			t.Errorf("click %d = %+v, want %+v", i, g, w)
		}
	}
	if unsafe.StringData(got[0].User) != unsafe.StringData(got[1].User) {
		t.Error("consecutive clicks by one user decoded two strings")
	}
	// A frame of more clicks than MaxFrameEvents is refused even when
	// its bytes could hold them.
	over := clicksPayload(1, make([]reef.Click, MaxFrameEvents+1))
	if _, _, err := decodeClicksFrame(over); !errors.Is(err, ErrBadFrame) {
		t.Errorf("decodeClicksFrame(%d clicks) = %v, want ErrBadFrame", MaxFrameEvents+1, err)
	}
}

// FuzzStreamClicks extends the stream decode contract to clicks frames:
// arbitrary payload bytes yield ErrBadFrame or clicks — never a panic,
// never an allocation sized by an unchecked count — and a payload that
// decodes re-encodes to exactly its own bytes.
func FuzzStreamClicks(f *testing.F) {
	f.Add(clicksPayload(3, sampleClicks()))
	f.Add(clicksPayload(1<<63+1, loadClicks64(f)))
	f.Add(clicksPayload(0, nil))
	// Truncated mid-click, and a trailing byte after the last click.
	clean := clicksPayload(5, sampleClicks())
	f.Add(clean[:len(clean)-3])
	f.Add(append(append([]byte{}, clean...), 0))
	// One click more than a frame may carry, and a count the bytes
	// cannot hold.
	f.Add(clicksPayload(9, make([]reef.Click, MaxFrameEvents+1)))
	f.Add(binary.AppendUvarint(binary.LittleEndian.AppendUint64(nil, 9), 1<<40))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, clicks, err := decodeClicksFrame(payload)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeClicksFrame returned untyped error %v", err)
			}
			return
		}
		if re := clicksPayload(seq, clicks); !bytes.Equal(re, payload) {
			t.Fatalf("re-encoded payload differs:\n got %x\nwant %x", re, payload)
		}
	})
}
