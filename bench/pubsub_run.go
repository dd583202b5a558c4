package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"reef"
	"reef/internal/routing"
)

// Every workload drives the same three planes and the same phases, so one
// runner serves all four; a workload is a topology, a plan and the rates.

// publishFunc is the data-plane write: the router's, a stream client's or
// the in-process deployment's PublishBatch.
type publishFunc func(ctx context.Context, evs []reef.Event) (int, error)

// consumePlane is what a reliable consumer calls.
type consumePlane interface {
	FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error)
	Ack(ctx context.Context, user, subID string, seq int64, nack bool) error
}

// controlPlane is what places and removes subscriptions.
type controlPlane interface {
	Subscribe(ctx context.Context, user, feedURL string, opts ...reef.SubscribeOption) (reef.Subscription, error)
	Unsubscribe(ctx context.Context, user, feedURL string) error
}

// env is one booted stack with its state loaded.
type env struct {
	fleet   *fleet
	publish publishFunc
	consume consumePlane
	control controlPlane
	// stats reads the merged counters of the whole stack.
	stats func(ctx context.Context) (reef.Stats, error)
	// closers release the clients the workload made, before the fleet stops.
	closers []func()
	// copies is how many nodes hold each subscription (k+1 under
	// replication): a publish delivers to every copy.
	copies int
	// layers names the layer the publish and control calls enter through,
	// for spans.
	publishLayer, controlLayer string
}

// stop tears the stack down; a second call does nothing.
func (e *env) stop() {
	if e.fleet == nil {
		return
	}
	for _, c := range e.closers {
		c()
	}
	e.fleet.stop()
	e.fleet = nil
}

// loadSpec is a workload's traffic.
type loadSpec struct {
	OpenRate   float64 // events per second in the open-loop phase
	OpenBatch  int
	Publishers int // closed-loop publishers
	Batch      int // closed-loop batch
	// Window caps the un-acked deliveries outstanding per probe in the
	// closed-loop phase (0 = none): a publisher sends its next batch only
	// while every probe has fewer than Window outstanding. Without it the
	// best-effort queues let the publishers run a whole phase ahead of the
	// pumps, and the count taken at the publisher is not a steady state.
	Window int
	// AckedThroughput counts throughput at the consumers (events fetched
	// and acked); otherwise it is the publishers' delivery counts.
	AckedThroughput bool
	ControlRate     float64 // unsubscribe+subscribe pairs per second
	// ClosedControl, when set, makes the control clients the closed loop:
	// that many workers run unsubscribe+subscribe pairs back to back with no
	// publisher beside them, ClosedPairs pairs per second of phase length in
	// all, and throughput is pairs per second. The amount of work is fixed,
	// not the time, so the journal the run leaves behind (which durable.recover_s
	// replays) has the same length on every run.
	ClosedControl int
	ClosedPairs   float64
	// FreshPayload: the deployment keeps a reference to the payload.
	FreshPayload bool
	WarmSeconds  float64
}

const (
	fetchMax     = 4096
	drainTimeout = 10 * time.Second
)

// Percentiles are taken per latencyWindow and rates per rateWindow, and the
// median over the windows is reported. A collection cycle (about 100 ms
// every 2-3 s on these heaps) fills a tenth of a one-second window, which
// makes a per-window p90 flip between two values; in a two-second window it
// stays under the percentile.
const (
	latencyWindow = 2 * time.Second
	rateWindow    = time.Second
)

// probe is the state of one reliable consumer.
type probe struct {
	spec subSpec
	feed string
	node int // node that owns the user (traced stamps are read there)
	// published counts events sent to the probe's feed by publish calls that
	// have returned. The consumer is done when the publishers are and it has
	// received that many.
	published atomic.Int64
	received  atomic.Int64
	acked     atomic.Int64
	// expect is the next per-feed number per (phase, publisher).
	expect map[[2]byte]uint64

	e2e  series // phase A: due -> FetchEvents returned, microseconds
	acks series // phase B: events acked, at ack time
	// receipts holds, on a traced run, when each phase A event arrived, for
	// the stage breakdown taken once every boundary timestamp is in.
	receipts []receipt
	// ackCall is the client-side ack duration (traced run).
	ackCall opTimes
}

type receipt struct {
	seq      uint64
	due, got time.Time
}

// counters of failed, lost, duplicated or out-of-order operations.
type failures struct {
	mu    sync.Mutex
	n     int64
	first []string
}

func (f *failures) add(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	f.n += n
	if len(f.first) < 8 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// psRun is one pub-sub measurement over a booted env.
type psRun struct {
	env  *env
	plan *plan
	load loadSpec
	tr   *tracer

	probes    []*probe
	feedProbe map[int]*probe // feed index -> its probe
	fail      failures
	attempted atomic.Int64

	pubDone   atomic.Bool
	consumers sync.WaitGroup
	// sent[feed][{phase, publisher}] is how many events the publishers'
	// sources handed out for a probed feed (noteSent, checkTails).
	sentMu sync.Mutex
	sent   map[int]map[[2]byte]uint64

	openStart, closedStart time.Time
	openDur, closedDur     time.Duration

	publishLat    series    // phase A: due -> publish returned
	publishDur    opTimes   // phase A: call start -> returned
	controlLat    series    // due -> pair done
	subCall       opTimes   // client-side Subscribe durations (traced run)
	deliveries    []*series // closed loop: delivery counts per publish, per publisher
	pairs         []*series // closed loop: control pairs done, per worker
	lateOpen      []sample
	closedPlanned time.Duration

	// Peaks a traced run polls for (pollLayers, the only writer while it
	// runs).
	goroutinesPeak int
	heapPeak       uint64
	retainedPeak   float64
	pendingPeak    int64
}

func newPSRun(e *env, p *plan, load loadSpec, tr *tracer) *psRun {
	r := &psRun{env: e, plan: p, load: load, tr: tr, feedProbe: make(map[int]*probe), sent: make(map[int]map[[2]byte]uint64)}
	for _, s := range p.Probes {
		// The cluster's placement: the node a user's calls are served by.
		node := routing.UserSlot(s.User, len(e.fleet.nodes))
		pr := &probe{spec: s, feed: p.Feeds[s.Feed], node: node, expect: make(map[[2]byte]uint64)}
		r.probes = append(r.probes, pr)
		r.feedProbe[s.Feed] = pr
	}
	if tr != nil {
		tr.resetSubscribes()
	}
	return r
}

// startConsumers starts one goroutine per probe. They run until the
// publishers are done and everything published has been received.
func (r *psRun) startConsumers() {
	for _, pr := range r.probes {
		r.consumers.Add(1)
		go func() {
			defer r.consumers.Done()
			r.consumeLoop(pr)
		}()
	}
}

func (r *psRun) consumeLoop(pr *probe) {
	// Never a context with a deadline here: see callTimeout.
	ctx := context.Background()
	var idleSince time.Time
	for {
		if r.pubDone.Load() && pr.received.Load() >= pr.published.Load() {
			return
		}
		evs, err := r.env.consume.FetchEvents(ctx, pr.spec.User, pr.feed, fetchMax)
		now := time.Now()
		if err != nil {
			r.fail.add(1, "fetch %s: %v", pr.spec.User, err)
			return
		}
		if len(evs) == 0 {
			if !r.pubDone.Load() {
				continue
			}
			if idleSince.IsZero() {
				idleSince = now
			} else if now.Sub(idleSince) > drainTimeout {
				lost := pr.published.Load() - pr.received.Load()
				r.fail.add(lost, "probe %s lost %d events", pr.spec.User, lost)
				return
			}
			continue
		}
		idleSince = time.Time{}
		closedEvents := 0
		for i := range evs {
			if r.observe(pr, &evs[i], now) == tagClosed {
				closedEvents++
			}
		}
		pr.received.Add(int64(len(evs)))
		last := evs[len(evs)-1].Seq
		ackStart := time.Now()
		if err := r.env.consume.Ack(ctx, pr.spec.User, pr.feed, last, false); err != nil {
			r.fail.add(1, "ack %s: %v", pr.spec.User, err)
			return
		}
		ackEnd := time.Now()
		pr.acked.Add(int64(len(evs)))
		if closedEvents > 0 {
			pr.acks.add(ackEnd.Sub(r.closedStart), float64(closedEvents))
		}
		if r.tr.on() {
			pr.ackCall.add(ackEnd.Sub(ackStart), 1)
			r.tr.span("ack", r.env.publishLayer, "", ackID(pr.spec.User, last), ackStart, ackEnd)
		}
	}
}

// observe checks one delivered event, takes its latency sample and returns
// the phase it belongs to.
func (r *psRun) observe(pr *probe, ev *reef.DeliveredEvent, now time.Time) (tag byte) {
	h, ok := readHeader(ev.Event.Payload)
	if !ok {
		r.fail.add(1, "probe %s: event seq %d has no header", pr.spec.User, ev.Seq)
		return 0
	}
	if ev.Attempts != 1 {
		r.fail.add(1, "probe %s: event %c%d delivered with attempts=%d", pr.spec.User, h.tag, h.feedSeq, ev.Attempts)
	}
	k := [2]byte{h.tag, h.pub}
	if want := pr.expect[k]; h.feedSeq != want {
		r.fail.add(1, "probe %s: got %c/%d #%d, want #%d", pr.spec.User, h.tag, h.pub, h.feedSeq, want)
	}
	pr.expect[k] = h.feedSeq + 1
	if h.tag == tagOpen {
		due := ev.Event.Published
		pr.e2e.add(due.Sub(r.openStart), micros(now.Sub(due)))
		if r.tr != nil {
			pr.receipts = append(pr.receipts, receipt{h.seq, due, now})
		}
	}
	return h.tag
}

// stages splits each phase A event's latency at the boundary timestamps the
// traced run took: due -> publish call started (wait) -> node apply started
// (ingress) -> apply ended (apply) -> leased to the consumer's fetch (retain)
// -> received (push). The five parts tile the interval, so their means add
// up to the mean end-to-end latency of the events that have every stamp. A
// node can lease an event before the apply call that delivered it has
// returned (in process the pump is that fast); the apply part then ends at
// the lease.
func (r *psRun) stages() (parts [5][]float64) {
	for _, pr := range r.probes {
		for _, rc := range pr.receipts {
			call, ok1 := r.tr.callStart.get(rc.seq)
			as, ok2 := r.tr.applyStart[pr.node].get(rc.seq)
			ae, ok3 := r.tr.applyEnd[pr.node].get(rc.seq)
			ls, ok4 := r.tr.leased[pr.node].get(rc.seq)
			if !(ok1 && ok2 && ok3 && ok4) {
				continue
			}
			if ae.After(ls) {
				ae = ls
			}
			for i, d := range [5]time.Duration{call.Sub(rc.due), as.Sub(call), ae.Sub(as), ls.Sub(ae), rc.got.Sub(ls)} {
				parts[i] = append(parts[i], micros(d))
			}
		}
	}
	return parts
}

// publishOnce sends one batch and accounts for it.
func (r *psRun) publishOnce(ctx context.Context, src *eventSource, batch []reef.Event, due time.Time) (n int, start, end time.Time, err error) {
	lo, hi := src.fill(batch, due)
	// Every node that holds a copy of a subscription delivers to it.
	lo *= r.env.copies
	hi *= r.env.copies
	r.attempted.Add(int64(len(batch)))
	start = time.Now()
	n, err = r.env.publish(ctx, batch)
	end = time.Now()
	if err != nil {
		r.fail.add(int64(len(batch)), "publish: %v", err)
		return n, start, end, err
	}
	if n < lo || n > hi {
		r.fail.add(1, "publish of %d events delivered %d, want %d..%d", len(batch), n, lo, hi)
	}
	for _, f := range src.feeds {
		if pr, ok := r.feedProbe[f]; ok {
			pr.published.Add(1)
		}
	}
	return n, start, end, nil
}

// runOpen is the open-loop phase: one publisher on a schedule, the control
// loop on its own schedule, consumers reading. tag is tagWarm for the
// unmeasured warm-up and tagOpen for the measured phase.
func (r *psRun) runOpen(tag byte, d time.Duration) {
	start := time.Now().Add(5 * time.Millisecond)
	until := start.Add(d)
	if tag == tagOpen {
		r.openStart, r.openDur = start, d
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		late := r.pacedPublisher(tag, start, until)
		if tag == tagOpen {
			r.lateOpen = late
		}
	}()
	if r.load.ControlRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.controlLoop(start, until, tag == tagOpen)
		}()
	}
	wg.Wait()
}

// pacedPublisher publishes batches on the open-loop schedule and returns
// the generator's lateness. Only tagOpen events are measured.
func (r *psRun) pacedPublisher(tag byte, start, until time.Time) []sample {
	ctx := context.Background()
	src := newEventSource(r.plan, tag, 0, 1, r.load.FreshPayload)
	defer r.noteSent(src)
	batch := make([]reef.Event, r.load.OpenBatch)
	interval := time.Duration(float64(time.Second) * float64(r.load.OpenBatch) / r.load.OpenRate)
	return openLoop(realClock{}, start, interval, until, nil, func(i int, due time.Time) {
		first := src.seq
		if tag == tagOpen && r.tr != nil {
			now := time.Now()
			for j := range batch {
				r.tr.callStart.set(first+uint64(j), now)
			}
		}
		_, t0, t1, err := r.publishOnce(ctx, src, batch, due)
		if err != nil || tag != tagOpen {
			return
		}
		r.publishLat.add(due.Sub(start), micros(t1.Sub(due)))
		if r.tr.on() {
			r.publishDur.add(t1.Sub(t0), len(batch))
			r.tr.span("publish", r.env.publishLayer, "", batchID(header{tag, 0, first, 0}), t0, t1)
		}
	})
}

// controlLoop unsubscribes and resubscribes the churn population
// round-robin on a schedule, one pair per slot.
func (r *psRun) controlLoop(start, until time.Time, measured bool) {
	ctx := context.Background()
	interval := time.Duration(float64(time.Second) / r.load.ControlRate)
	openLoop(realClock{}, start, interval, until, nil, func(i int, due time.Time) {
		done, ok := r.controlPair(ctx, r.plan.Churn[i%len(r.plan.Churn)])
		if ok && measured {
			r.controlLat.add(due.Sub(start), micros(done.Sub(due)))
		}
	})
}

// controlPair unsubscribes one churn user and subscribes it again, and
// returns when the pair was done.
func (r *psRun) controlPair(ctx context.Context, s subSpec) (time.Time, bool) {
	feed := r.plan.feedOf(s)
	r.attempted.Add(1)
	if err := r.env.control.Unsubscribe(ctx, s.User, feed); err != nil {
		r.fail.add(1, "unsubscribe %s: %v", s.User, err)
		return time.Time{}, false
	}
	t0 := time.Now()
	if _, err := r.env.control.Subscribe(ctx, s.User, feed); err != nil {
		r.fail.add(1, "subscribe %s: %v", s.User, err)
		return time.Time{}, false
	}
	t1 := time.Now()
	if r.tr != nil {
		id := subscribeID(s.User, r.tr.nextSubscribe(clientSide, s.User))
		if r.tr.on() {
			r.subCall.add(t1.Sub(t0), 1)
			r.tr.span("subscribe", r.env.controlLayer, "", id, t0, t1)
		}
	}
	return t1, true
}

// runClosed is the closed-loop phase: each worker starts its next
// operation as soon as the previous one returned. The workers are the
// publishers (each sends its next batch when the last returned and, with a
// window, when the consumers have room) or, with ClosedControl, the control
// clients, which share a fixed amount of work.
func (r *psRun) runClosed(d time.Duration) {
	ctx := context.Background()
	start := time.Now()
	until := start.Add(d)
	r.closedStart, r.closedDur, r.closedPlanned = start, d, d
	var wg sync.WaitGroup
	worker := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	if n := r.load.ClosedControl; n > 0 {
		total := int(r.load.ClosedPairs * d.Seconds())
		r.pairs = make([]*series, n)
		for w := 0; w < n; w++ {
			r.pairs[w] = &series{}
			worker(func() {
				for i := w; i < total; i += n {
					if done, ok := r.controlPair(ctx, r.plan.Churn[i%len(r.plan.Churn)]); ok {
						r.pairs[w].add(done.Sub(start), 1)
					}
				}
			})
		}
	} else {
		r.deliveries = make([]*series, r.load.Publishers)
		for p := 0; p < r.load.Publishers; p++ {
			r.deliveries[p] = &series{}
			worker(func() { r.closedPublisher(ctx, p, start, until) })
		}
	}
	if r.tr != nil {
		// Tracing alternates off and on over the phase, so the phase also
		// measures what tracing costs (see traceSegments).
		r.tr.recording.Store(false)
		var toggles []*time.Timer
		for i := 1; i < traceSegments; i++ {
			toggles = append(toggles, time.AfterFunc(time.Duration(i)*d/traceSegments, func() { r.tr.recording.Store(i%2 == 1) }))
		}
		defer func() {
			for _, tm := range toggles {
				tm.Stop()
			}
			r.tr.recording.Store(true)
		}()
	}
	wg.Wait()
	r.closedDur = time.Since(start)
}

func (r *psRun) closedPublisher(ctx context.Context, p int, start, until time.Time) {
	src := newEventSource(r.plan, tagClosed, p, r.load.Publishers, r.load.FreshPayload)
	defer r.noteSent(src)
	batch := make([]reef.Event, r.load.Batch)
	for time.Now().Before(until) {
		if !r.waitWindow(until) {
			return
		}
		first := src.seq
		n, t0, t1, err := r.publishOnce(ctx, src, batch, time.Now())
		if err != nil {
			return
		}
		r.deliveries[p].add(t1.Sub(start), float64(n))
		runtime.Gosched()
		if r.tr.on() {
			r.tr.span("publish", r.env.publishLayer, "", batchID(header{tagClosed, byte(p), first, 0}), t0, t1)
		}
	}
}

// waitWindow blocks while any probe has a full window of un-acked
// deliveries outstanding. It reports false when the phase ended first.
func (r *psRun) waitWindow(until time.Time) bool {
	if r.load.Window == 0 {
		return true
	}
	for {
		room := true
		for _, pr := range r.probes {
			if pr.published.Load()-pr.acked.Load() >= int64(r.load.Window) {
				room = false
				break
			}
		}
		if room {
			return true
		}
		if !time.Now().Before(until) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// measure runs the phases with the consumers reading, then lets them drain.
// Every phase should start right after a collection, so that whether a
// cycle falls into a six-second phase does not depend on what the step
// before left behind; measure collects before the first.
func (r *psRun) measure(phases func()) {
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if r.tr != nil {
			r.pollLayers(stop)
		}
	}()
	runtime.GC()
	r.startConsumers()
	phases()
	r.finish()
	close(stop)
	<-polled
}

// conclude turns what measure gathered into the result: the counters'
// verdict, the metrics of the phases that ran, the live heap, the recover
// cycles and, on a traced run, the per-layer metrics. before is the memory
// statistics taken when the run's operations started; decorate, when set,
// adds a workload's own layer inputs.
func (r *psRun) conclude(res *result, rc runConfig, sw *stopwatch, before *runtime.MemStats, decorate func(*layerInputs)) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ctx := context.Background()
	st, err := r.checkCounters(ctx)
	if err != nil {
		return fmt.Errorf("reading counters: %w", err)
	}
	r.openLoopMetrics(res)
	if r.closedDur > 0 {
		r.closedLoopMetrics(res)
	}
	res.set("live_heap_mb", liveHeapMB(), "MB", 1)

	var lay *layerInputs
	if rc.traced {
		if lay, err = collectLayers(ctx, r.env, st); err != nil {
			return err
		}
		lay.before, lay.after, lay.ops = *before, after, r.attempted.Load()
		if decorate != nil {
			decorate(lay)
		}
	}
	// Recovery is measured where there is a data directory to reopen; a
	// memory-backed stack (fanout) leaves the durable metrics at 0.
	var times []time.Duration
	var info reef.StorageInfo
	durable := r.env.fleet.durable()
	if durable {
		if times, info, err = r.env.fleet.recoverNode(recoverCycles); err != nil {
			return err
		}
		res.set("durable.recover_s", median(secondsOf(times)), "s", len(times))
		sw.lap("recover")
		if info.RecoveredRecords == 0 {
			r.fail.add(1, "node 0 reopened without replaying any record")
		}
	}
	if lay != nil {
		lay.recoverTimes, lay.recovered = times, info
		if durable {
			if lay.snapshot, err = timeSnapshot(r.env.fleet); err != nil {
				return err
			}
		}
		if err := r.perLayer(res, lay, rc); err != nil {
			return err
		}
		sw.lap("probes")
	}
	res.Attempted += r.attempted.Load()
	for _, pr := range r.probes {
		res.Attempted += pr.published.Load()
	}
	res.Failed += r.fail.n
	res.failures = append(res.failures, r.fail.first...)
	return nil
}

// finish lets the consumers drain and stops them. A consumer blocked in a
// fetch only looks at pubDone when the fetch returns, so each probe's feed
// gets one last event to wake its consumer with. That event is counted as
// published before pubDone is set, so it cannot stand in for a lost event of
// the phases: a consumer leaves only once it has received one event more
// than the phases sent to its feed.
func (r *psRun) finish() {
	for _, pr := range r.probes {
		pr.published.Add(1)
	}
	r.pubDone.Store(true)
	for i, pr := range r.probes {
		ev := probeEvent(r.plan, pr.spec.Feed, header{tag: tagEnd, seq: uint64(i)})
		if _, err := r.env.publish(context.Background(), []reef.Event{ev}); err != nil {
			r.fail.add(1, "final publish: %v", err)
		}
	}
	r.consumers.Wait()
	r.checkTails()
}

// checkTails compares, per probe, phase and publisher, the number of events
// the source handed out for the probe's feed with the next number the
// consumer expects: a feed whose last events never arrived shows no gap to
// the sequence check, because no later event follows them.
func (r *psRun) checkTails() {
	r.sentMu.Lock()
	defer r.sentMu.Unlock()
	for _, pr := range r.probes {
		for k, sent := range r.sent[pr.spec.Feed] {
			if got := pr.expect[k]; got != sent {
				r.fail.add(1, "probe %s: feed got %d of the %d events of %c/%d", pr.spec.User, got, sent, k[0], k[1])
			}
		}
	}
}

// noteSent records how many events src handed out per probed feed, once its
// publisher is done.
func (r *psRun) noteSent(src *eventSource) {
	r.sentMu.Lock()
	defer r.sentMu.Unlock()
	for f := range r.feedProbe {
		if r.sent[f] == nil {
			r.sent[f] = make(map[[2]byte]uint64)
		}
		r.sent[f][[2]byte{src.tag, src.pub}] = src.feedSeq[f]
	}
}

// checkCounters turns the stack's own fault counters into failures: each of
// them must stay 0 on a healthy run.
func (r *psRun) checkCounters(ctx context.Context) (reef.Stats, error) {
	st, err := r.env.stats(ctx)
	if err != nil {
		return nil, err
	}
	keys := []string{
		"cluster_publish_skips", "cluster_forward_errors",
		"delivery_redeliveries", "delivery_deadletters", "delivery_lease_expiries",
	}
	// The broker also counts as dropped an event matched to a subscription
	// that was cancelled before delivery. With the churn population on the
	// published feeds that race is the workload, and the delivery count
	// range in publishOnce is the check; elsewhere a drop is a queue
	// overflow and an event lost.
	churnOnPublished := false
	for _, c := range r.plan.ChurnOn {
		churnOnPublished = churnOnPublished || c > 0
	}
	if !churnOnPublished {
		keys = append(keys, "broker_dropped")
	}
	for _, key := range keys {
		if v := st[key]; v > 0 {
			r.fail.add(int64(v), "%s = %v", key, v)
		}
	}
	for _, n := range r.env.fleet.nodes {
		if n.mgr == nil {
			continue
		}
		for _, p := range n.mgr.Status().Peers {
			if p.Resyncs > 0 {
				r.fail.add(p.Resyncs, "replication %s -> %s resynced %d times", n.spec.id, p.Node, p.Resyncs)
			}
		}
	}
	return st, nil
}
