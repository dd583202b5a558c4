package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reef"
	"reef/internal/durable"
)

// The traced run measures layers from outside, at the composition seams the
// public API already has: the deployment handed to reefstream.Listen and
// reefhttp.NewHandler is a struct embedding *reef.Centralized that times the
// calls the transports make into it; the replication tap and the
// replication applier are wrapped the same way. End-to-end numbers never
// come from a traced run.

// span is one timed call. Spans of one request share id; parent names the
// span of the same id that caused this one ("" for the request's root).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	ID     string `json:"id"`
}

// maxSpans bounds what a run keeps in memory; later spans are counted and
// dropped.
const maxSpans = 400_000

// opTimes collects the durations of one kind of call into a layer, with the
// unit count each call carried (events, clicks, records).
type opTimes struct {
	mu    sync.Mutex
	durs  []float64 // microseconds
	units int64
}

func (o *opTimes) add(d time.Duration, units int) {
	o.mu.Lock()
	o.durs = append(o.durs, micros(d))
	o.units += int64(units)
	o.mu.Unlock()
}

func (o *opTimes) p50() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return median(append([]float64(nil), o.durs...))
}

func (o *opTimes) total() (sumMicros float64, calls int, units int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, d := range o.durs {
		sumMicros += d
	}
	return sumMicros, len(o.durs), o.units
}

// perUnitNanos is total time over total units, in nanoseconds.
func (o *opTimes) perUnitNanos() float64 {
	sum, _, units := o.total()
	if units == 0 {
		return 0
	}
	return sum * 1e3 / float64(units)
}

// stamps holds one timestamp per event of the open-loop phase, written by
// whichever goroutine reaches that boundary and read by the consumer that
// receives the event.
type stamps []atomic.Int64

func (s stamps) set(i uint64, t time.Time) {
	if i < uint64(len(s)) {
		s[i].Store(t.UnixNano())
	}
}

func (s stamps) get(i uint64) (time.Time, bool) {
	if i >= uint64(len(s)) {
		return time.Time{}, false
	}
	v := s[i].Load()
	if v == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, v), true
}

type tracer struct {
	origin time.Time
	// recording is off while the stack is set up (the set-ups' thousands of
	// subscribes are not what the layer metrics describe) and for half of
	// the closed-loop phase, so the run itself yields the tracing overhead.
	recording atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int64

	// Calls into the node deployment (layer "reef").
	nodePublish, nodeFetch, nodeAck, nodeIngest, nodeSubscribe opTimes
	// Replication seams.
	tapOffer, replApply opTimes

	// Boundary timestamps of open-loop events, by event number. callStart
	// is written by the publisher; the per-node ones by the node that owns
	// the consumer's user.
	callStart            stamps
	applyStart, applyEnd []stamps // per node
	leased               []stamps // per node

	// subscribes numbers each user's Subscribe calls, as the control client
	// (side 0) and as the nodes (side 1) see them, for span ids.
	opMu       sync.Mutex
	subscribes [2]map[string]int64
}

const (
	clientSide = iota
	nodeSide
)

func newTracer(nodes, openEvents int) *tracer {
	t := &tracer{origin: time.Now(), callStart: make(stamps, openEvents)}
	for i := 0; i < nodes; i++ {
		t.applyStart = append(t.applyStart, make(stamps, openEvents))
		t.applyEnd = append(t.applyEnd, make(stamps, openEvents))
		t.leased = append(t.leased, make(stamps, openEvents))
	}
	t.resetSubscribes()
	return t
}

func (t *tracer) on() bool { return t != nil && t.recording.Load() }

func (t *tracer) span(name, layer, parent, id string, start, end time.Time) {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, span{name, layer, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds(), parent, id})
	}
	t.mu.Unlock()
}

// nextSubscribe numbers a user's Subscribe calls on one side of the wire,
// so the client-side and the node-side span of one call get the same id:
// both sides see a user's calls in the same order. Both sides count every
// call, recorded or not, from resetSubscribes on.
func (t *tracer) nextSubscribe(side int, user string) int64 {
	t.opMu.Lock()
	defer t.opMu.Unlock()
	t.subscribes[side][user]++
	return t.subscribes[side][user]
}

// resetSubscribes starts the numbering over. The set-up subscribes through
// calls the client side does not trace, so the phases start from here.
func (t *tracer) resetSubscribes() {
	t.opMu.Lock()
	t.subscribes = [2]map[string]int64{{}, {}}
	t.opMu.Unlock()
}

func subscribeID(user string, n int64) string { return fmt.Sprintf("sub:%s:%d", user, n) }

func batchID(h header) string { return fmt.Sprintf("%c%d:%d", h.tag, h.pub, h.seq) }

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// spanLayers are the layers spans are recorded in; each reports its self
// time as <layer>.self_ms.
var spanLayers = []string{"reefcluster", "reefstream", "reefhttp", "reef", "delivery", "replication"}

// selfTimes returns, per layer, the summed self time of its spans: a span's
// duration minus the part of it that its child spans (same id, parent = its
// name) cover. Overlapping children are not counted twice.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct{ id, parent string }
	children := make(map[key][][2]int64)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(children[key{s.ID, s.Name}], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// wrapTap times the replication tap (journal append -> offer to the sender).
func (t *tracer) wrapTap(tap func(durable.Record)) func(durable.Record) {
	return func(rec durable.Record) {
		if !t.on() {
			tap(rec)
			return
		}
		start := time.Now()
		tap(rec)
		t.tapOffer.add(time.Since(start), 1)
	}
}

// tracedDep is the deployment the transports of a traced node serve. The
// embedded *reef.Centralized keeps every optional interface satisfied
// (BatchCountPublisher, StreamDeliverer, Persister, replication.Applier).
type tracedDep struct {
	*reef.Centralized
	t    *tracer
	node int
}

// publishSpans stamps the apply boundaries of open-loop events and records
// one apply span per batch found in evs (the stream server coalesces the
// frames of several publish calls into one apply).
func (d *tracedDep) publishSpans(evs []reef.Event, start, end time.Time) {
	name := "apply@" + nodeID(d.node)
	for i := range evs {
		h, ok := readHeader(evs[i].Payload)
		if !ok {
			continue
		}
		if h.tag == tagOpen {
			d.t.applyStart[d.node].set(h.seq, start)
			d.t.applyEnd[d.node].set(h.seq, end)
		}
		// The events of one publish call carry one due time, so a new due
		// time starts the next call's events.
		if i == 0 || !evs[i-1].Published.Equal(evs[i].Published) {
			d.t.span(name, "reef", "publish", batchID(h), start, end)
		}
	}
	d.t.nodePublish.add(end.Sub(start), len(evs))
}

func (d *tracedDep) PublishEvent(ctx context.Context, ev reef.Event) (int, error) {
	if !d.t.on() {
		return d.Centralized.PublishEvent(ctx, ev)
	}
	start := time.Now()
	n, err := d.Centralized.PublishEvent(ctx, ev)
	d.publishSpans([]reef.Event{ev}, start, time.Now())
	return n, err
}

func (d *tracedDep) PublishBatch(ctx context.Context, evs []reef.Event) (int, error) {
	if !d.t.on() {
		return d.Centralized.PublishBatch(ctx, evs)
	}
	start := time.Now()
	n, err := d.Centralized.PublishBatch(ctx, evs)
	d.publishSpans(evs, start, time.Now())
	return n, err
}

func (d *tracedDep) PublishBatchCounts(ctx context.Context, evs []reef.Event, counts []int) (int, error) {
	if !d.t.on() {
		return d.Centralized.PublishBatchCounts(ctx, evs, counts)
	}
	start := time.Now()
	n, err := d.Centralized.PublishBatchCounts(ctx, evs, counts)
	d.publishSpans(evs, start, time.Now())
	return n, err
}

func (d *tracedDep) leasedSpans(user, subID string, evs []reef.DeliveredEvent, start, end time.Time) {
	if len(evs) == 0 {
		return
	}
	for i := range evs {
		if h, ok := readHeader(evs[i].Event.Payload); ok && h.tag == tagOpen {
			d.t.leased[d.node].set(h.seq, end)
		}
	}
	d.t.nodeFetch.add(end.Sub(start), len(evs))
	d.t.span("lease@"+nodeID(d.node), "delivery", "", fmt.Sprintf("fetch:%s:%d", user, evs[0].Seq), start, end)
}

func (d *tracedDep) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	if !d.t.on() {
		return d.Centralized.FetchEvents(ctx, user, subID, max)
	}
	start := time.Now()
	evs, err := d.Centralized.FetchEvents(ctx, user, subID, max)
	d.leasedSpans(user, subID, evs, start, time.Now())
	return evs, err
}

func (d *tracedDep) FetchEventsInto(ctx context.Context, user, subID string, dst []reef.DeliveredEvent, max int) ([]reef.DeliveredEvent, error) {
	if !d.t.on() {
		return d.Centralized.FetchEventsInto(ctx, user, subID, dst, max)
	}
	start := time.Now()
	before := len(dst)
	evs, err := d.Centralized.FetchEventsInto(ctx, user, subID, dst, max)
	d.leasedSpans(user, subID, evs[before:], start, time.Now())
	return evs, err
}

func (d *tracedDep) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	if !d.t.on() {
		return d.Centralized.Ack(ctx, user, subID, seq, nack)
	}
	start := time.Now()
	err := d.Centralized.Ack(ctx, user, subID, seq, nack)
	end := time.Now()
	d.t.nodeAck.add(end.Sub(start), 1)
	d.t.span("ack_apply@"+nodeID(d.node), "reef", "ack", ackID(user, seq), start, end)
	return err
}

func ackID(user string, seq int64) string { return fmt.Sprintf("ack:%s:%d", user, seq) }

func (d *tracedDep) IngestClicks(ctx context.Context, clicks []reef.Click) (int, error) {
	if !d.t.on() || len(clicks) == 0 {
		return d.Centralized.IngestClicks(ctx, clicks)
	}
	start := time.Now()
	n, err := d.Centralized.IngestClicks(ctx, clicks)
	end := time.Now()
	d.t.nodeIngest.add(end.Sub(start), len(clicks))
	d.t.span("ingest_apply@"+nodeID(d.node), "reef", "ingest", ingestID(clicks), start, end)
	return n, err
}

// ingestID names a click batch by its first click; a batch the router split
// by owner keeps the id of the whole batch only on the node that got that
// first click, which is enough to pair most spans.
func ingestID(clicks []reef.Click) string {
	return fmt.Sprintf("ingest:%s:%d", clicks[0].User, clicks[0].At.UnixNano())
}

func (d *tracedDep) Subscribe(ctx context.Context, user, feedURL string, opts ...reef.SubscribeOption) (reef.Subscription, error) {
	id := subscribeID(user, d.t.nextSubscribe(nodeSide, user))
	if !d.t.on() {
		return d.Centralized.Subscribe(ctx, user, feedURL, opts...)
	}
	start := time.Now()
	sub, err := d.Centralized.Subscribe(ctx, user, feedURL, opts...)
	end := time.Now()
	d.t.nodeSubscribe.add(end.Sub(start), 1)
	d.t.span("subscribe_apply@"+nodeID(d.node), "reef", "subscribe", id, start, end)
	return sub, err
}

// ApplyReplicated times the replica-side apply of a shipped batch.
func (d *tracedDep) ApplyReplicated(recs []durable.Record) error {
	if !d.t.on() {
		return d.Centralized.ApplyReplicated(recs)
	}
	start := time.Now()
	err := d.Centralized.ApplyReplicated(recs)
	end := time.Now()
	d.t.replApply.add(end.Sub(start), len(recs))
	d.t.span("replica_apply@"+nodeID(d.node), "replication", "", fmt.Sprintf("repl:%d:%d", d.node, start.UnixNano()), start, end)
	return err
}
