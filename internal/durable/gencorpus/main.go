// Command gencorpus regenerates the version-2 and stream seeds of the
// checked-in corpus under testdata/fuzz/FuzzWALDecode after a
// record-format change. Run from the repository root:
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
	// The version-1 seeds (seed-clean-log through seed-repl-position and
	// seed-cursor-ops-ordering-key) hold the JSON records releases before
	// binary payloads wrote. They stay checked in as they are; nothing
	// here regenerates them, since this binary writes version 2.

	// One version-2 seed per WAL op, then all of them as one log, torn
	// mid-record and with a flipped payload byte.
	at := time.Date(2006, 1, 1, 12, 0, 0, 5, time.FixedZone("", 5*3600+45*60))
	feed := "http://news.test/feed.xml"
	filter := `feed = "http://news.test/feed.xml" and type = "feed-item"`
	v2 := []durable.Record{
		durable.ClicksRecord([]attention.Click{
			{User: "alice", URL: "http://news.test/a.html", At: at, Referrer: "http://news.test/"},
			{User: "alice", URL: "http://news.test/b.html", FromEvent: true},
		}),
		durable.FlagRecord("ads.test", 3),
		durable.SubscribeRecord(durable.SubscriptionState{
			User: "bob", Kind: "subscribe-feed", FeedURL: feed, Filter: filter, At: at,
			Delivery: &durable.DeliveryState{Guarantee: "at_least_once", AckTimeoutMS: 5000, MaxAttempts: 3},
		}),
		durable.UnsubscribeRecord(durable.SubscriptionState{User: "bob", Kind: "subscribe-feed", FeedURL: feed, Filter: filter, At: at.UTC()}),
		durable.PendingAddRecord(durable.PendingAddPayload{
			User: "carol", ID: "r3", Seq: 3,
			Rec: durable.RecommendationState{Kind: "content-query", User: "carol", Filter: `keywords contains "reef"`,
				At: at, Terms: []durable.TermState{{Term: "reef", Score: 4.2}}},
		}),
		durable.PendingTakeRecord(durable.PendingTakePayload{User: "carol", ID: "r3", Accepted: true, At: at}),
		durable.CursorAckRecord(durable.CursorAckPayload{User: "bob", ID: feed, Seq: 9}),
		durable.ReplPositionRecord(durable.ReplPosition{Source: "n1", Epoch: 1136073600000000000, Applied: 42}),
	}
	var all []byte
	for _, rec := range v2 {
		write("seed-v2-"+rec.Op.String(), rec.AppendEncoded(nil))
		all = rec.AppendEncoded(all)
	}
	write("seed-v2-all-ops", all)
	write("seed-v2-torn-tail", all[:len(all)-6])
	dirty := append([]byte(nil), all...)
	dirty[len(dirty)/2] ^= 0x08
	write("seed-v2-flipped-payload", dirty)

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
}
