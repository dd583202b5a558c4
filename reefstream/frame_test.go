package reefstream

import (
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/pubsub"
	"reef/internal/trace"
)

// frameCase is one stream frame built by its encoder from fixed inputs.
type frameCase struct {
	name  string
	frame func(dst []byte) []byte
}

// streamFrameCases builds one frame of each stream op, appended to dst:
// the inputs TestStreamFrameBytes pins the bytes of and
// TestFrameEncodeAllocs counts the allocations of. Events are the
// engine's form, whose attributes are in name order, so every encoding
// is deterministic.
func streamFrameCases() []frameCase {
	hello, err := json.Marshal(hello{Proto: ProtoVersion, Node: "n1", Clicks: true})
	if err != nil {
		panic(err)
	}
	ds := sampleDelivered()
	internal := make([]pubsub.Event, len(ds))
	for i := range ds {
		internal[i] = ds[i].Event
	}
	evs := encodeInternal(internal)
	var tr trace.ID
	copy(tr[:], "0123456789abcdef")
	clicks := durable.AppendClicks(nil, []attention.Click{
		{User: "alice", URL: "http://h.test/p/1", At: time.Unix(1700000000, 5).UTC()},
		{User: "alice", URL: "http://h.test/p/2", At: time.Unix(1700000060, 0).UTC(), Referrer: "http://h.test/p/1", FromEvent: true},
	})
	return []frameCase{
		{"hello", func(dst []byte) []byte {
			return durable.Record{Op: durable.OpStreamHello, Payload: hello}.AppendEncoded(dst)
		}},
		{"publish", func(dst []byte) []byte { return appendPublishFrame(dst, 7, evs, trace.ID{}) }},
		{"publish-traced", func(dst []byte) []byte { return appendPublishFrame(dst, 8, evs, tr) }},
		{"clicks", func(dst []byte) []byte { return appendClicksFrame(dst, 9, clicks) }},
		{"ack", func(dst []byte) []byte { return appendAckFrame(dst, ack{Seq: 10, Delivered: 3}) }},
		{"ack-message", func(dst []byte) []byte {
			return appendAckFrame(dst, ack{Seq: 11, Status: StatusInvalidArgument, Message: "bad filter"})
		}},
		{"subscribe", func(dst []byte) []byte {
			return appendSubscribeFrame(dst, subscribe{Seq: 12, CID: 2, Credit: MaxFrameEvents, User: "bob", SubID: "http://h.test/f"})
		}},
		{"deliver", func(dst []byte) []byte { return appendDeliverFrame(dst, 2, ds) }},
		{"consume-ack", func(dst []byte) []byte {
			return appendConsumeAckFrame(dst, consumeAck{Seq: 13, CID: 2, AckSeq: 40})
		}},
		{"consume-nack", func(dst []byte) []byte {
			return appendConsumeAckFrame(dst, consumeAck{Seq: 14, CID: 2, AckSeq: 41, Nack: true})
		}},
		{"credit", func(dst []byte) []byte { return appendCreditFrame(dst, credit{CID: 2, N: 64}) }},
	}
}

// TestStreamFrameBytes pins every stream encoder's output, byte for
// byte: the hex is the wire as released clients and servers speak it,
// so an encoder change that moves a byte fails here.
func TestStreamFrameBytes(t *testing.T) {
	want := map[string]string{
		"hello":          "27000000534961cd01087b2270726f746f223a312c226e6f6465223a226e31222c22636c69636b73223a747275657d",
		"publish":        "7a000000b825414d010907000000000000000309637261776c65722d330304666565640f687474703a2f2f682e746573742f66057469746c650568656c6c6f047479706509666565642d6974656d0d626f64792062797465732000ff2a002a36fe9c97170001016b0000000000000000000001730101610162000000000000000000",
		"publish-traced": "8a0000005baa1a32010908000000000000000309637261776c65722d330304666565640f687474703a2f2f682e746573742f66057469746c650568656c6c6f047479706509666565642d6974656d0d626f64792062797465732000ff2a002a36fe9c97170001016b000000000000000000000173010161016200000000000000000030313233343536373839616263646566",
		"clicks":         "5e000000cfa7a74b011009000000000000000205616c69636511687474703a2f2f682e746573742f702f3180c49fd50c0500000005616c69636511687474703a2f2f682e746573742f702f32f8c49fd50c000011687474703a2f2f682e746573742f702f3101",
		"ack":            "14000000a16b171a010a0a0000000000000003000000000000000000",
		"ack-message":    "1e000000829818d4010a0b000000000000000000000000000000010a6261642066696c746572",
		"subscribe":      "2800000078dedafb010b0c000000000000000200000000000000802003626f620f687474703a2f2f682e746573742f66",
		"deliver":        "95000000bfc9f626010c0200000000000000030a000000000000000109637261776c65722d330304666565640f687474703a2f2f682e746573742f66057469746c650568656c6c6f047479706509666565642d6974656d0d626f64792062797465732000ff2a002a36fe9c97170b00000000000000020001016b000000000000000000000c000000000000000301730101610162000000000000000000",
		"consume-ack":    "1b0000000a2c1644010d0d000000000000000200000000000000280000000000000000",
		"consume-nack":   "1b000000e6251e30010d0e000000000000000200000000000000290000000000000001",
		"credit":         "0b000000d699bd67010e020000000000000040",
	}
	for _, c := range streamFrameCases() {
		got := hex.EncodeToString(c.frame(nil))
		if got != want[c.name] {
			t.Errorf("%s frame:\n got %s\nwant %s", c.name, got, want[c.name])
		}
	}
}
