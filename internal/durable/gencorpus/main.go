// Command gencorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzWALDecode after a record-format change. Run from the
// repository root:
//
//	go run ./internal/durable/gencorpus
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
)

func write(name string, data []byte) {
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile("internal/durable/testdata/fuzz/FuzzWALDecode/"+name, []byte(content), 0o644); err != nil {
		panic(err)
	}
	fmt.Println("wrote", name, len(data), "bytes")
}

func main() {
	var clean []byte
	clean = durable.ClicksRecord([]attention.Click{{User: "u", URL: "http://h.test/p", At: time.Unix(0, 0).UTC()}}).AppendEncoded(clean)
	clean = durable.FlagRecord("h.test", 3).AppendEncoded(clean)
	write("seed-clean-log", clean)
	write("seed-torn-tail", clean[:len(clean)-4])

	flipped := append([]byte(nil), clean...)
	flipped[4] ^= 0x10
	write("seed-flipped-crc", flipped)

	dirty := append([]byte(nil), clean...)
	dirty[len(dirty)-2] ^= 0x40
	write("seed-flipped-payload", dirty)

	write("seed-garbage", []byte("not a log at all"))
	write("seed-empty", nil)

	huge := make([]byte, 12)
	binary.LittleEndian.PutUint32(huge[0:4], durable.MaxRecordLen+1)
	write("seed-huge-length", huge)

	tiny := make([]byte, 12)
	binary.LittleEndian.PutUint32(tiny[0:4], 1)
	write("seed-tiny-length", tiny)

	sub := durable.SubscribeRecord(durable.SubscriptionState{
		User: "alice", Kind: "subscribe-feed", FeedURL: "http://news.test/feed.xml",
		Filter: `feed = "http://news.test/feed.xml" and type = "feed-item"`,
		At:     time.Unix(1136073600, 0).UTC(),
	}).AppendEncoded(nil)
	pend := durable.PendingAddRecord(durable.PendingAddPayload{
		User: "alice", ID: "r3", Seq: 3,
		Rec: durable.RecommendationState{Kind: "content-query", User: "alice",
			Terms: []durable.TermState{{Term: "reef", Score: 4.2}}},
	}).AppendEncoded(sub)
	pend = durable.PendingTakeRecord(durable.PendingTakePayload{User: "alice", ID: "r3", Accepted: true}).AppendEncoded(pend)
	write("seed-subscription-ops", pend)

	// Cursor record family: a reliable subscribe (delivery config riding
	// on the subscription payload) followed by two cumulative cursor
	// advances.
	cur := durable.SubscribeRecord(durable.SubscriptionState{
		User: "bob", Kind: "subscribe-feed", FeedURL: "http://news.test/feed.xml",
		Filter: `feed = "http://news.test/feed.xml" and type = "feed-item"`,
		At:     time.Unix(1136073600, 0).UTC(),
		Delivery: &durable.DeliveryState{
			Guarantee: "at_least_once", AckTimeoutMS: 5000, MaxAttempts: 3,
		},
	}).AppendEncoded(nil)
	cur = durable.CursorAckRecord(durable.CursorAckPayload{
		User: "bob", ID: "http://news.test/feed.xml", Seq: 4,
		At: time.Unix(1136073661, 0).UTC(),
	}).AppendEncoded(cur)
	cur = durable.CursorAckRecord(durable.CursorAckPayload{
		User: "bob", ID: "http://news.test/feed.xml", Seq: 9,
	}).AppendEncoded(cur)
	write("seed-cursor-ops", cur)
	// seed-cursor-ops-ordering-key is this log as written while reliable
	// subscriptions still journaled an "ordering_key". It stays checked in
	// as it is; nothing here regenerates it.

	// The same cursor log with a payload byte flipped: the checksum must
	// reject it with a typed error.
	curDirty := append([]byte(nil), cur...)
	curDirty[len(curDirty)-3] ^= 0x20
	write("seed-cursor-corrupt", curDirty)

	// The stream consume family (ops 11–14). These never appear in a WAL
	// file, but they share the frame codec, so the WAL fuzzer must keep
	// decoding them losslessly. Payloads are built by hand against the
	// wire layouts documented in package reefstream.
	subscribe := binary.LittleEndian.AppendUint64(nil, 7)      // seq
	subscribe = binary.LittleEndian.AppendUint64(subscribe, 1) // cid
	subscribe = binary.AppendUvarint(subscribe, 4096)          // credit
	subscribe = binary.AppendUvarint(subscribe, uint64(len("bob")))
	subscribe = append(subscribe, "bob"...)
	subID := "http://news.test/feed.xml"
	subscribe = binary.AppendUvarint(subscribe, uint64(len(subID)))
	subscribe = append(subscribe, subID...)

	ev := binary.AppendUvarint(nil, uint64(len("crawler"))) // event: source
	ev = append(ev, "crawler"...)
	ev = binary.AppendUvarint(ev, 1) // nattrs
	ev = binary.AppendUvarint(ev, uint64(len("type")))
	ev = append(ev, "type"...)
	ev = binary.AppendUvarint(ev, uint64(len("feed-item")))
	ev = append(ev, "feed-item"...)
	ev = binary.AppendUvarint(ev, uint64(len("payload")))
	ev = append(ev, "payload"...)
	ev = binary.LittleEndian.AppendUint64(ev, uint64(time.Unix(1136073600, 0).UnixNano()))
	deliver := binary.LittleEndian.AppendUint64(nil, 1)    // cid
	deliver = binary.AppendUvarint(deliver, 1)             // n
	deliver = binary.LittleEndian.AppendUint64(deliver, 4) // delivery seq
	deliver = binary.AppendUvarint(deliver, 1)             // attempts
	deliver = append(deliver, ev...)

	cack := binary.LittleEndian.AppendUint64(nil, 8) // seq
	cack = binary.LittleEndian.AppendUint64(cack, 1) // cid
	cack = binary.LittleEndian.AppendUint64(cack, 4) // ackSeq
	cack = append(cack, 0)                           // nack

	grant := binary.LittleEndian.AppendUint64(nil, 1) // cid
	grant = binary.AppendUvarint(grant, 64)           // n

	var consume []byte
	consume = durable.Record{Op: durable.OpStreamSubscribe, Payload: subscribe}.AppendEncoded(consume)
	consume = durable.Record{Op: durable.OpStreamDeliver, Payload: deliver}.AppendEncoded(consume)
	consume = durable.Record{Op: durable.OpStreamConsumeAck, Payload: cack}.AppendEncoded(consume)
	consume = durable.Record{Op: durable.OpStreamCredit, Payload: grant}.AppendEncoded(consume)
	write("seed-stream-consume-ops", consume)

	// A deliver frame torn mid-event: the frame envelope itself is
	// truncated, so the decoder must stop with a typed error.
	deliverFrame := durable.Record{Op: durable.OpStreamDeliver, Payload: deliver}.AppendEncoded(nil)
	write("seed-truncated-deliver", deliverFrame[:len(deliverFrame)-7])

	// A replicated batch as a replica journals it: the records, then the
	// source's applied position right after them.
	repl := durable.CursorAckRecord(durable.CursorAckPayload{
		User: "bob", ID: "http://news.test/feed.xml", Seq: 9,
	}).AppendEncoded(nil)
	repl = durable.ReplPositionRecord(durable.ReplPosition{
		Source: "n1", Epoch: 1136073600000000000, Applied: 42,
	}).AppendEncoded(repl)
	write("seed-repl-position", repl)
}
