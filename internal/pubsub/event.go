// Package pubsub implements the content-based publish-subscribe substrate
// that Reef generates subscriptions for. It provides:
//
//   - Event: a typed name-value set with payload and provenance.
//   - Index: an access-predicate matcher that files each conjunctive
//     filter under its most selective equality and evaluates an event
//     against only the filters filed under its own attribute values.
//   - Broker: a single matching engine with local subscribers, each a
//     handler called at match time on the publisher's goroutine
//     (WithHandler) or, without one, a fixed-size queue read from a
//     channel.
//   - Overlay: a network of broker nodes connected by links, with
//     reverse-path content-based routing and covering-based subscription
//     propagation, simulated with one goroutine per node.
//
// The paper (§5.3) positions Reef atop Siena/SCRIBE/Gryphon-class systems;
// this package implements that class so the recommendation pipeline has a
// real pub-sub interface to target.
package pubsub

import (
	"fmt"
	"sync/atomic"
	"time"

	"reef/internal/eventalg"
)

// Event is a published notification: a typed attribute set plus an opaque
// payload (e.g. the rendered story or feed item) and provenance metadata.
// It is the one internal form of an event, from the stream decoder
// through the broker to the delivery queue and the sidebar; an event
// never shares storage with the frame it was decoded from.
type Event struct {
	// ID is assigned by the broker that first accepts the event and is
	// unique within one substrate instance.
	ID uint64
	// Attrs carries the name-value pairs that filters match against,
	// sorted by name.
	Attrs eventalg.Attrs
	// Payload is opaque application data delivered verbatim.
	Payload []byte
	// Source identifies the publisher (e.g. a feed URL or service name).
	Source string
	// Published is the event's publication time on the accepting broker.
	Published time.Time
}

// Topic returns the conventional "topic" attribute, if present. Topic-based
// subscriptions in Reef are filters on this attribute.
func (e Event) Topic() string {
	if v, ok := e.Attrs.Get("topic"); ok && v.Kind() == eventalg.KindString {
		return v.Str()
	}
	return ""
}

// String renders the event compactly for logs.
func (e Event) String() string {
	return fmt.Sprintf("event#%d %s src=%q", e.ID, e.Attrs, e.Source)
}

// TopicFilter builds the canonical topic-based subscription filter.
func TopicFilter(topic string) eventalg.Filter {
	return eventalg.NewFilter(eventalg.C("topic", eventalg.OpEq, eventalg.String(topic)))
}

// eventIDs hands out substrate-unique event IDs.
var eventIDs atomic.Uint64

// nextEventID returns a fresh event ID.
func nextEventID() uint64 { return eventIDs.Add(1) }

// NextEventID allocates a substrate-unique event ID. Publish assigns
// IDs automatically; callers that fan one event out to several brokers
// stamp it first so every broker sees the same identity (and no broker
// writes to a concurrently shared batch slice).
func NextEventID() uint64 { return nextEventID() }
