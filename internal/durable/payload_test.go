package durable

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"reef/internal/attention"
)

// TestPayloadVersionsDecodeAlike pins that every WAL op's version-2
// payload decodes to exactly the value its version-1 JSON gives: the
// same strings, numbers and nil-ness, and times with the same instant,
// offset and location — UTC for UTC, time.Local when the offset is the
// local zone's, a fixed zone otherwise, and the zero time. time.Local
// is set to +05:30 for the test so the Local case is not UTC.
func TestPayloadVersionsDecodeAlike(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("IST", 5*3600+30*60)
	defer func() { time.Local = saved }()

	base := time.Date(2006, 2, 1, 10, 0, 0, 123456789, time.UTC)
	times := []time.Time{
		base,
		base.In(time.FixedZone("", 2*3600)),
		base.In(time.FixedZone("", 5*3600+45*60)),
		base.In(time.FixedZone("", -7*3600)),
		base.In(time.Local),
		base.In(time.FixedZone("", 5*3600+30*60)), // the local offset, unnamed
		{},
	}
	var clicks []attention.Click
	for i, at := range times {
		clicks = append(clicks, attention.Click{User: "u", URL: "http://a.test/" + string(rune('a'+i)), At: at, Referrer: "http://r.test/", FromEvent: i%2 == 1})
	}
	clicks = append(clicks, attention.Click{User: "v", URL: "http://b.test/"})

	type codec struct {
		v1     any
		v2     Record
		decode func(Record) (any, error)
	}
	var cases []codec
	add := func(v1 any, v2 Record, decode func(Record) (any, error)) {
		cases = append(cases, codec{v1, v2, decode})
	}
	add(ClicksPayload{Clicks: clicks}, ClicksRecord(clicks), func(r Record) (any, error) { return DecodeClicks(r) })
	add(FlagPayload{Host: "ads.test", Flag: 5}, FlagRecord("ads.test", 5), func(r Record) (any, error) { return DecodeFlag(r) })
	for _, at := range times {
		for _, d := range []*DeliveryState{nil, {Guarantee: "at_least_once"}, {Guarantee: "at_least_once", AckTimeoutMS: 5000, MaxAttempts: 3}} {
			s := SubscriptionState{User: "u", Kind: "subscribe-feed", FeedURL: "http://f.test/feed.xml", Filter: `type = "feed-item"`, Reason: "r", At: at, Delivery: d}
			add(s, SubscribeRecord(s), func(r Record) (any, error) { return DecodeSubscription(r) })
		}
		u := SubscriptionState{User: "u", Kind: "subscribe-feed", At: at}
		add(u, UnsubscribeRecord(u), func(r Record) (any, error) { return DecodeSubscription(r) })
		c := CursorAckPayload{User: "u", ID: "s", Seq: 42, At: at}
		add(c, CursorAckRecord(c), func(r Record) (any, error) { return DecodeCursorAck(r) })
		pt := PendingTakePayload{User: "u", ID: "r1", Accepted: true, At: at}
		add(pt, PendingTakeRecord(pt), func(r Record) (any, error) { return DecodePendingTake(r) })
		pa := PendingAddPayload{User: "u", ID: "r2", Seq: 2, Rec: RecommendationState{
			Kind: "content-query", User: "u", Filter: `keywords contains "reef"`, At: at,
			Terms: []TermState{{Term: "reef", Score: 1.0 / 3}, {Term: "feed", Score: 4.25}},
		}}
		add(pa, PendingAddRecord(pa), func(r Record) (any, error) { return DecodePendingAdd(r) })
	}
	bare := PendingAddPayload{User: "u", ID: "r3", Rec: RecommendationState{Kind: "subscribe-feed", FeedURL: "http://f.test/feed.xml"}}
	add(bare, PendingAddRecord(bare), func(r Record) (any, error) { return DecodePendingAdd(r) })
	rp := ReplPosition{Source: "n2", Epoch: 1136073600000000000, Applied: 9}
	add(rp, ReplPositionRecord(rp), func(r Record) (any, error) { return DecodeReplPosition(r) })

	for i, c := range cases {
		data, err := json.Marshal(c.v1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.decode(Record{Op: c.v2.Op, Version: VersionJSON, Payload: data})
		if err != nil {
			t.Fatalf("case %d: version 1: %v", i, err)
		}
		if c.v2.Version != VersionBinary {
			t.Fatalf("case %d: %v record written in version %d", i, c.v2.Op, c.v2.Version)
		}
		got, err := c.decode(c.v2)
		if err != nil {
			t.Fatalf("case %d: version 2: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (%v): version 2 decodes to\n%+v\nversion 1 to\n%+v", i, c.v2.Op, got, want)
		}
	}
}
