package reefstream

import (
	"context"
	"encoding/json"
	"testing"

	"reef"
	"reef/internal/durable"
)

// Count budgets of the clicks verb, for the checked-in 64-click batch.
// Each bound is the value measured when it was set plus a stated slack.
const (
	// clicksFrameBytesPerClick: measured 83.1 (the JSON body of the same
	// batch is 134.5), slack 1 byte per click. The batch is fixed, so
	// the count is exact; the slack admits an encoding tweak, not a new
	// field.
	clicksFrameBytesPerClick = 83.1 + 1
	// clicksAllocsPerClick covers one Client.IngestClicks round trip,
	// client encode and server decode: measured 2.00 (a URL and a
	// referrer string per click; the user string is shared), slack 0.5.
	clicksAllocsPerClick = 2.00 + 0.5
)

// clicksOnlyDep is a deployment that only takes clicks, so an
// allocation count sees the stream plane and nothing behind it.
type clicksOnlyDep struct{ reef.Deployment }

func (clicksOnlyDep) IngestClicks(_ context.Context, clicks []reef.Click) (int, error) {
	return len(clicks), nil
}

// TestStreamClicksBudget is the clicks verb's table of the count
// budgets: wire bytes per click of one clicks frame, reported beside
// the JSON body REST carries for the same batch, and (without the race
// detector, which changes allocation counts) allocations per click of
// one Client.IngestClicks round trip against an in-process server.
func TestStreamClicksBudget(t *testing.T) {
	clicks := loadClicks64(t)
	per := func(n int) float64 { return float64(n) / float64(len(clicks)) }

	frame := appendClicksFrame(nil, 1, durable.AppendClicks(nil, clicks))
	body, err := json.Marshal(struct {
		Clicks []reef.Click `json:"clicks"`
	}{clicks})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wire bytes per click: clicks frame %.1f, JSON body %.1f", per(len(frame)), per(len(body)))
	if got := per(len(frame)); got > clicksFrameBytesPerClick {
		t.Errorf("clicks frame = %.1f B per click, budget %.1f", got, clicksFrameBytesPerClick)
	}

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector changes allocation counts")
		}
		srv, err := Listen("127.0.0.1:0", clicksOnlyDep{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl := NewClient(srv.Addr().String())
		defer cl.Close()
		ctx := context.Background()
		ingest := func() {
			if n, err := cl.IngestClicks(ctx, clicks); err != nil || n != len(clicks) {
				t.Fatalf("IngestClicks = (%d, %v), want %d", n, err, len(clicks))
			}
		}
		ingest() // dial, handshake and warm the pools
		got := per(int(testing.AllocsPerRun(200, ingest)))
		t.Logf("allocations per click: %.2f", got)
		if got > clicksAllocsPerClick {
			t.Errorf("IngestClicks round trip = %.2f allocations per click, budget %.2f", got, clicksAllocsPerClick)
		}
	})
}
