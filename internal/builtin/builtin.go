// Package builtin is the internal entry the stream data plane takes into
// reef's built-in deployments: decoded events go into the engine as they
// are, and leased deliveries come back out, with no public reef.Event in
// between. A deployment without an entry is served through the public
// interfaces instead (reef.BatchCountPublisher, reef.StreamDeliverer).
package builtin

import (
	"context"

	"reef/internal/delivery"
	"reef/internal/pubsub"
)

// Entry is one built-in deployment's internal entry.
type Entry struct {
	// Publish validates and publishes a batch as PublishBatchCounts does
	// for public events; counts is nil or has one slot per event.
	Publish func(ctx context.Context, evs []pubsub.Event, counts []int) (int, error)
	// Fetch leases up to max events of one reliable subscription,
	// appended to dst, as FetchEventsInto does. It is nil when the
	// deployment has no reliable delivery.
	Fetch func(ctx context.Context, user, subID string, dst []delivery.Delivered, max int) ([]delivery.Delivered, error)
}

// Of returns the entry of dep. Package reef sets it when it is loaded.
// It matches dep's dynamic type, never a method set, so a wrapper type
// that embeds a built-in deployment gets no entry: its own methods serve
// it, and whatever they observe (a trace, a counter) sees every call.
var Of = func(dep any) (Entry, bool) { return Entry{}, false }
