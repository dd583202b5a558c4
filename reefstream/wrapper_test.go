package reefstream_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/reefstream"
)

// countingDep is a wrapper deployment of the kind a tracer or a metrics
// shim is: it embeds the built-in deployment, so every optional
// interface stays satisfied, and overrides the two calls the stream
// makes on the hot path to count them.
type countingDep struct {
	*reef.Centralized
	publishes atomic.Int64
	fetches   atomic.Int64
}

func (d *countingDep) PublishBatchCounts(ctx context.Context, evs []reef.Event, counts []int) (int, error) {
	d.publishes.Add(1)
	return d.Centralized.PublishBatchCounts(ctx, evs, counts)
}

func (d *countingDep) FetchEventsInto(ctx context.Context, user, subID string, dst []reef.DeliveredEvent, max int) ([]reef.DeliveredEvent, error) {
	d.fetches.Add(1)
	return d.Centralized.FetchEventsInto(ctx, user, subID, dst, max)
}

// TestStreamServesWrapperThroughItsMethods pins the wrapper rule: the
// stream takes the built-in engine's internal entry only for the
// built-in deployment itself, never for a type that embeds it, so the
// wrapper's own methods see every stream publish and every pushed
// fetch, and the events still arrive intact.
func TestStreamServesWrapperThroughItsMethods(t *testing.T) {
	const feed = "http://h.test/f"
	const user = "user-000"
	dep := &countingDep{Centralized: newDep(t, feed, 0)}
	subscribeReliable(t, dep.Centralized, user, feed, time.Minute)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ctx := context.Background()
	want := feedEvent(feed)
	if n, err := cl.PublishEvent(ctx, want); err != nil || n != 1 {
		t.Fatalf("PublishEvent = (%d, %v), want 1 delivery", n, err)
	}
	fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	ds, err := cl.FetchEvents(fctx, user, feed, 1)
	if err != nil || len(ds) != 1 {
		t.Fatalf("FetchEvents = (%d events, %v), want 1", len(ds), err)
	}
	if got := ds[0].Event; got.Source != want.Source || len(got.Attrs) != len(want.Attrs) || got.Attrs["title"] != want.Attrs["title"] {
		t.Errorf("pushed event = %+v, want %+v", got, want)
	}
	if p, f := dep.publishes.Load(), dep.fetches.Load(); p == 0 || f == 0 {
		t.Errorf("wrapper saw %d PublishBatchCounts and %d FetchEventsInto calls, want both > 0", p, f)
	}
}
