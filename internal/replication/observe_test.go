package replication

import (
	"net/http"
	"testing"

	"reef/internal/trace"
)

// TestShipTraceStitching pins the replication half of cross-node
// tracing: every batch mints a fresh trace ID, sends it in the batch
// header, records the matching repl.records span in the sender's own
// ring, and the receiver records its apply under the same ID in its
// ring.
func TestShipTraceStitching(t *testing.T) {
	tap := newLinkTap(http.DefaultTransport)
	rec, recvRec := trace.NewRecorder(32), trace.NewRecorder(32)
	sender, _, recvApp := pair(t, func(o *Options) {
		o.Trace = rec
		o.HTTPClient = &http.Client{Transport: tap}
	}, func(o *Options) { o.Trace = recvRec })
	sender.Offer(cursorRec("u", 1))
	waitFor(t, "record applied", func() bool { return len(recvApp.applied()) == 1 })

	waitFor(t, "ship span recorded", func() bool { return rec.Total() > 0 })
	spans := rec.Spans(trace.ID{}, 0)
	byID := make(map[trace.ID]trace.Span, len(spans))
	for _, sp := range spans {
		if sp.Op != "repl.records" || sp.Node != "a" || sp.Err != "" {
			t.Fatalf("span = %+v, want clean repl.records from node a", sp)
		}
		byID[sp.Trace] = sp
	}
	applied := map[trace.ID]bool{}
	for _, sp := range recvRec.Spans(trace.ID{}, 0) {
		if sp.Op != "repl.apply" || sp.Node != "b" || sp.Err != "" {
			t.Fatalf("receiver span = %+v, want clean repl.apply on node b", sp)
		}
		applied[sp.Trace] = true
	}
	wired := 0
	for _, h := range tap.sentAll() {
		id := trace.ID(h.Trace)
		if id.IsZero() {
			t.Fatal("a batch went out without a trace ID")
		}
		if _, ok := byID[id]; ok && applied[id] {
			wired++
		}
	}
	if wired == 0 {
		t.Fatal("no wire trace ID matches both a sender span and a receiver apply")
	}
}

// TestShipUntracedWhenUnset: with no recorder configured, batches still
// carry a trace ID (the receiver may trace) but the sender records
// nothing and must not crash on the nil recorder.
func TestShipUntracedWhenUnset(t *testing.T) {
	tap := newLinkTap(http.DefaultTransport)
	sender, _, recvApp := pair(t, func(o *Options) {
		o.HTTPClient = &http.Client{Transport: tap}
	})
	sender.Offer(cursorRec("u", 1))
	waitFor(t, "record applied", func() bool { return len(recvApp.applied()) == 1 })
	for _, h := range tap.sentAll() {
		if trace.ID(h.Trace).IsZero() {
			t.Fatal("a batch went out without a trace ID")
		}
	}
}
