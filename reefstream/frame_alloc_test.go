//go:build !race

package reefstream

import (
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
)

// TestFrameEncodeAllocs pins that encoding a frame allocates nothing
// when dst has room: every WAL record, every stream frame and both
// replication link messages are built in place in dst by the one frame
// writer, durable.BeginFrame/EndFrame. The race detector changes
// allocation counts, hence the build tag.
func TestFrameEncodeAllocs(t *testing.T) {
	at := time.Unix(1700000000, 5).UTC()
	cases := streamFrameCases()
	for _, rec := range []durable.Record{
		durable.ClicksRecord([]attention.Click{{User: "alice", URL: "http://h.test/p/1", At: at}}),
		durable.FlagRecord("ads.test", 1),
		durable.SubscribeRecord(durable.SubscriptionState{User: "bob", Kind: "feed", FeedURL: "http://h.test/f", At: at}),
		durable.UnsubscribeRecord(durable.SubscriptionState{User: "bob", Kind: "feed", FeedURL: "http://h.test/f", At: at}),
		durable.PendingAddRecord(durable.PendingAddPayload{User: "bob", ID: "r1", Seq: 1, Rec: durable.RecommendationState{Kind: "feed", User: "bob", At: at}}),
		durable.PendingTakeRecord(durable.PendingTakePayload{User: "bob", ID: "r1", Accepted: true, At: at}),
		durable.CursorAckRecord(durable.CursorAckPayload{User: "bob", ID: "http://h.test/f", Seq: 7, At: at}),
		durable.ReplPositionRecord(durable.ReplPosition{Source: "n1", Epoch: 3, Applied: 9}),
		durable.PendingSeqRecord(9),
	} {
		cases = append(cases, frameCase{"wal-" + rec.Op.String(), rec.AppendEncoded})
	}
	cases = append(cases,
		frameCase{"repl-batch", func(dst []byte) []byte {
			return durable.AppendReplBatch(dst, durable.ReplBatch{Prev: 4, Last: 9, Count: 5, Bytes: 512, Trace: [16]byte{1, 2, 3}})
		}},
		frameCase{"repl-ack", func(dst []byte) []byte {
			return durable.AppendReplAck(dst, durable.ReplAck{Kind: durable.AckError, Acked: 4, Err: "replication: refused"})
		}},
	)
	dst := make([]byte, 0, 64<<10)
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, func() { dst = c.frame(dst[:0]) }); n != 0 {
			t.Errorf("%s frame: %.1f allocations, want 0", c.name, n)
		}
	}
}
