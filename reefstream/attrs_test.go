package reefstream_test

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/eventalg"
	"reef/reefhttp"
	"reef/reefstream"
)

// TestRepeatedAttrNameLastWins: an event that names one attribute twice
// reaches a consumer with the last value, whether it came in over the
// stream (a frame carries the pairs as sent) or over REST (the JSON
// object decodes into a map, where the later key overwrites).
func TestRepeatedAttrNameLastWins(t *testing.T) {
	const feed, user = "http://h.test/f", "user-000"
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(nopFetcher{}))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Subscribe(ctx, user, feed, reef.WithGuarantee(reef.AtLeastOnce), reef.WithAckTimeout(time.Minute)); err != nil {
		t.Fatal(err)
	}

	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()
	body := binary.AppendUvarint(nil, 1)
	body = reefstream.AppendEventAttrs(body, "stream", []eventalg.Attr{
		{Name: "title", Val: eventalg.String("first")},
		{Name: "type", Val: eventalg.String("feed-item")},
		{Name: "feed", Val: eventalg.String(feed)},
		{Name: "title", Val: eventalg.String("last")},
	}, nil, time.Time{})
	if n, err := cl.PublishPayload(ctx, body); err != nil || n != 1 {
		t.Fatalf("stream publish = (%d, %v), want 1 delivery", n, err)
	}

	ts := httptest.NewServer(reefhttp.NewHandler(dep, nil))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(
		`{"source":"rest","attrs":{"title":"first","type":"feed-item","feed":"`+feed+`","title":"last"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("REST publish status %d", resp.StatusCode)
	}

	ds, err := dep.FetchEvents(ctx, user, feed, 0)
	if err != nil || len(ds) != 2 {
		t.Fatalf("FetchEvents = (%d events, %v), want 2", len(ds), err)
	}
	for _, d := range ds {
		if got := d.Event.Attrs["title"]; got != "last" || len(d.Event.Attrs) != 3 {
			t.Errorf("%s event attrs = %v, want title=last among 3", d.Event.Source, d.Event.Attrs)
		}
	}
}
