package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"reef"
	"reef/reefclient"
	"reef/reefstream"
)

// runConfig is what the command line asks of one run.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// quick shrinks populations and rates for the smoke test.
	quick bool
	// base is the directory all data directories are made under.
	base string
	// spanOut is where a traced run writes its spans.
	spanOut string
	// partial receives what a run has gathered so far, for the watchdog.
	partial *partialResult
}

// workload is one entry of the catalogue.
type workload struct {
	name string
	why  string
	run  func(rc runConfig) (*result, error)
}

func catalogue() []workload {
	return []workload{
		{"path", "3 file-backed nodes (WAL appended, not fsynced), k=1 replication, router, stream: transport, delivery queue, cursor WAL and replication do the work, matching almost none", pathWorkload().run},
		{"fanout", "one memory-backed node embedded in the process, 15k Zipf subscriptions: index match, broker delivery and frontend pumps do the work; no transport, no WAL, no replication", fanoutWorkload().run},
		{"churn", "one file-backed node as reefd builds it (WAL not fsynced); subscribers come and go over REST while events arrive over the stream: index writers beside readers", churnWorkload().run},
		{"attention", "the paper's loop on the path topology: clicks in, crawl and recommend, accept, then events on the accepted feeds; bulk journaled writes and a big click store behind every call", runAttention},
	}
}

// psWorkload is a pub-sub workload: a topology, a plan and the rates.
type psWorkload struct {
	name  string
	plan  planSpec
	fleet fleetSpec
	load  loadSpec
	// wire builds the three planes over a booted fleet.
	wire func(f *fleet) (*env, error)
}

const (
	setupRuns     = 7
	recoverCycles = 3
	setupWorkers  = 4
)

// Calibrated parameters. The sizes come from ISSUE 13's prototype on the
// 2-core reference box; README.md records both.

func pathWorkload() *psWorkload {
	return &psWorkload{
		name: "path",
		plan: planSpec{Feeds: 3, Probes: 3, ProbeSlots: 3, ChurnUsers: 64, PayloadBytes: 1024 - headerLen},
		fleet: fleetSpec{
			nodes: 3, replicas: 1, durable: true, queueSize: reliableQueueSize,
			fetcher: nopFetcher{}, rest: true, stream: true, router: true,
		},
		load: loadSpec{
			OpenRate: 10000, OpenBatch: 32,
			Publishers: 1, Batch: 32, Window: 2048, AckedThroughput: true,
			ControlRate: 50, WarmSeconds: 1,
		},
		wire: wireRouter,
	}
}

func fanoutWorkload() *psWorkload {
	return &psWorkload{
		name: "fanout",
		plan: planSpec{
			Feeds: 2000, Probes: 16, Users: 5000, SubsPerUser: 3, ZipfS: 1.05, ZipfV: 50,
			ChurnUsers: 64, PayloadBytes: 64,
		},
		fleet: fleetSpec{nodes: 1, shards: 2, fetcher: nopFetcher{}},
		load: loadSpec{
			OpenRate: 1200, OpenBatch: 16,
			Publishers: 2, Batch: 16,
			ControlRate: 100, FreshPayload: true, WarmSeconds: 1,
		},
		wire: wireInProcess,
	}
}

func churnWorkload() *psWorkload {
	return &psWorkload{
		name: "churn",
		plan: planSpec{
			Feeds: 100, Probes: 8, Users: 2000, SubsPerUser: 1,
			ChurnUsers: 5000, ChurnOnPublished: true, PayloadBytes: 1024 - headerLen,
		},
		fleet: fleetSpec{nodes: 1, durable: true, shards: 2, fetcher: nopFetcher{}, rest: true, stream: true},
		load: loadSpec{
			OpenRate: 1500, OpenBatch: 16,
			Publishers: 1, Batch: 16,
			ControlRate: 200, ClosedControl: 4, ClosedPairs: 4000, WarmSeconds: 1,
		},
		wire: wireSingleNode,
	}
}

// wireRouter: everything goes through the cluster router.
func wireRouter(f *fleet) (*env, error) {
	return &env{
		fleet: f, publish: f.router.PublishBatch, consume: f.router, control: f.router,
		stats: f.router.Stats, copies: f.router.Replicas() + 1,
		publishLayer: "reefcluster", controlLayer: "reefcluster",
	}, nil
}

// wireInProcess: the application embeds the deployment.
func wireInProcess(f *fleet) (*env, error) {
	n := f.nodes[0]
	front := n.front.(interface {
		reef.Deployment
		reef.StreamDeliverer
	})
	return &env{
		fleet: f, publish: front.PublishBatch, consume: &notifyConsumer{dep: front}, control: front,
		stats: front.Stats, copies: 1, publishLayer: "reef", controlLayer: "reef",
	}, nil
}

// wireSingleNode: a publisher and the consumers each hold a stream
// connection to the node, the control client talks REST.
func wireSingleNode(f *fleet) (*env, error) {
	n := f.nodes[0]
	addr := n.stream.Addr().String()
	pub := reefstream.NewClient(addr, reefstream.WithExpectNode(n.spec.id), reefstream.WithCallTimeout(callTimeout))
	con := reefstream.NewClient(addr, reefstream.WithExpectNode(n.spec.id), reefstream.WithCallTimeout(callTimeout))
	ctl := reefclient.New(n.baseURL(), reefclient.WithTimeout(callTimeout))
	return &env{
		fleet: f, publish: pub.PublishBatch, consume: con, control: ctl,
		stats: ctl.Stats, copies: 1, publishLayer: "reefstream", controlLayer: "reefhttp",
		closers: []func(){func() { _ = pub.Close() }, func() { _ = con.Close() }, func() { _ = ctl.Close() }},
	}, nil
}

// notifyConsumer gives the in-process deployment the blocking fetch the
// transports have: it waits on the subscription's append hook.
type notifyConsumer struct {
	dep interface {
		reef.Deployment
		reef.StreamDeliverer
	}
	mu    sync.Mutex
	wakes map[string]chan struct{}
}

func (c *notifyConsumer) wake(user, subID string) (chan struct{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.wakes[user+"\x00"+subID]; ok {
		return ch, nil
	}
	ch := make(chan struct{}, 1)
	if _, err := c.dep.NotifyEvents(user, subID, ch); err != nil {
		return nil, err
	}
	if c.wakes == nil {
		c.wakes = make(map[string]chan struct{})
	}
	c.wakes[user+"\x00"+subID] = ch
	return ch, nil
}

func (c *notifyConsumer) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	ch, err := c.wake(user, subID)
	if err != nil {
		return nil, err
	}
	bound := time.NewTimer(callTimeout)
	defer bound.Stop()
	for {
		evs, err := c.dep.FetchEventsInto(ctx, user, subID, nil, max)
		if err != nil || len(evs) > 0 {
			return evs, err
		}
		select {
		case <-ch:
		case <-bound.C:
			return nil, nil
		}
	}
}

func (c *notifyConsumer) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	return c.dep.Ack(ctx, user, subID, seq, nack)
}

// setup boots the stack and loads the plan's subscriptions; it returns when
// the stack has served its first operation on every plane.
func (w *psWorkload) setup(rc runConfig, p *plan, tr *tracer) (*env, error) {
	f, err := startFleet(rc.base, w.fleet, tr)
	if err != nil {
		return nil, err
	}
	e, err := w.wire(f)
	if err != nil {
		f.stop()
		return nil, err
	}
	if err := loadSubscriptions(e, p); err != nil {
		e.stop()
		return nil, err
	}
	if err := firstOperation(e, p); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// loadSubscriptions places every subscription of the plan through the
// workload's control plane, from setupWorkers goroutines.
func loadSubscriptions(e *env, p *plan) error {
	ctx := context.Background()
	type job struct {
		user, feed string
		reliable   bool
	}
	jobs := make(chan job, 256)
	errs := make(chan error, setupWorkers)
	var wg sync.WaitGroup
	for i := 0; i < setupWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for j := range jobs {
				if first != nil {
					continue
				}
				var opts []reef.SubscribeOption
				if j.reliable {
					opts = []reef.SubscribeOption{
						reef.WithGuarantee(reef.AtLeastOnce),
						reef.WithAckTimeout(probeAckTimeout),
						reef.WithMaxAttempts(probeMaxAttempts),
					}
				}
				if _, err := e.control.Subscribe(ctx, j.user, j.feed, opts...); err != nil {
					first = fmt.Errorf("subscribing %s to %s: %w", j.user, j.feed, err)
				}
			}
			errs <- first
		}()
	}
	for _, s := range p.Probes {
		jobs <- job{s.User, p.feedOf(s), true}
	}
	for _, s := range p.Static {
		jobs <- job{s.User, p.feedOf(s), false}
	}
	for _, s := range p.Churn {
		jobs <- job{s.User, p.feedOf(s), false}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	// Replicas must hold the subscriptions before the first publish, or
	// delivery counts would depend on shipping lag.
	_, err := e.fleet.drainReplication(drainTimeout)
	return err
}

// firstOperation publishes one event to every probe's feed and has the
// probe fetch and ack it: connections are dialled, sessions attached.
func firstOperation(e *env, p *plan) error {
	ctx := context.Background()
	for i, s := range p.Probes {
		ev := probeEvent(p, s.Feed, header{tag: tagFirst, seq: uint64(i)})
		if _, err := e.publish(ctx, []reef.Event{ev}); err != nil {
			return fmt.Errorf("first publish: %w", err)
		}
		deadline := time.Now().Add(drainTimeout)
		for {
			evs, err := e.consume.FetchEvents(ctx, s.User, p.Feeds[s.Feed], fetchMax)
			if err != nil {
				return fmt.Errorf("first fetch for %s: %w", s.User, err)
			}
			if len(evs) > 0 {
				if err := e.consume.Ack(ctx, s.User, p.Feeds[s.Feed], evs[len(evs)-1].Seq, false); err != nil {
					return fmt.Errorf("first ack for %s: %w", s.User, err)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("probe %s never received its first event", s.User)
			}
		}
	}
	return nil
}

// probeEvent is a single event outside the phases' numbering, for a probe's
// first operation and its wake-up at the end.
func probeEvent(p *plan, feed int, h header) reef.Event {
	buf := make([]byte, headerLen+len(p.Filler))
	putHeader(buf, h)
	copy(buf[headerLen:], p.Filler)
	return reef.Event{
		Attrs:   map[string]string{"type": "feed-item", "feed": p.Feeds[feed], "title": "t", "link": "http://bench.test/item"},
		Payload: buf, Published: time.Now(),
	}
}

func (w *psWorkload) scaled(rc runConfig) *psWorkload {
	if !rc.quick {
		return w
	}
	q := *w
	q.plan.Users = min(q.plan.Users, 300)
	q.plan.Feeds = min(q.plan.Feeds, 60)
	q.plan.ChurnUsers = min(q.plan.ChurnUsers, 100)
	q.load.OpenRate = min(q.load.OpenRate, 2000)
	q.load.WarmSeconds = 0.1
	return &q
}

// run measures the workload once.
func (w *psWorkload) run(rc runConfig) (*result, error) {
	w = w.scaled(rc)
	p := genPlan(rc.seed, w.plan)
	openDur := time.Duration(rc.seconds / 2 * float64(time.Second))
	closedDur := time.Duration(rc.seconds*float64(time.Second)) - openDur
	var tr *tracer
	if rc.traced {
		tr = newTracer(w.fleet.nodes, int(w.load.OpenRate*openDur.Seconds())+w.load.OpenBatch)
	}
	res := newResult(w.name, rc)
	sw := newStopwatch()

	setups := &setupTimer{setup: func() (*env, error) { return w.setup(rc, p, tr) }}
	e, err := setups.next()
	if err != nil {
		return nil, err
	}
	defer e.stop()
	sw.lap("set-up")
	if tr != nil {
		tr.recording.Store(true)
	}

	r := newPSRun(e, p, w.load, tr)
	rc.partial.attach(res, r)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	r.measure(func() {
		r.runOpen(tagWarm, time.Duration(w.load.WarmSeconds*float64(time.Second)))
		sw.lap("warm-up")
		r.runOpen(tagOpen, openDur)
		sw.lap("open loop")
		runtime.GC()
		r.runClosed(closedDur)
		sw.lap("closed loop")
	})
	sw.lap("drain")
	if err := r.conclude(res, rc, sw, &before, nil); err != nil {
		return nil, err
	}
	e.stop()
	if tr != nil {
		tr.recording.Store(false)
	}
	if err := setups.finish(res, sw); err != nil {
		return nil, err
	}
	return res, nil
}

// setupTimer times the stack's set-up, setupRuns times in all. The first
// stack is the one the run measures, because it is built on the process's
// fresh heap: a stack built after others were torn down fills the holes they
// left, its subscriptions end up scattered over the heap, and the index walk
// over them is up to twice as slow, by a different amount on every run
// (fanout's publish_p50_us spread 27 % between runs measured on the seventh
// stack and 6 % on the first). The other set-ups run once the phases are
// over, each torn down again.
type setupTimer struct {
	setup func() (*env, error)
	times []float64
}

func (s *setupTimer) next() (*env, error) {
	start := time.Now()
	e, err := s.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(s.times), err)
	}
	s.times = append(s.times, time.Since(start).Seconds())
	return e, nil
}

// finish does the set-ups still to be timed and sets setup_s, the median.
func (s *setupTimer) finish(res *result, sw *stopwatch) error {
	// What the measured stack left behind is garbage now; collecting it
	// inside a timed set-up would charge the set-up for it.
	runtime.GC()
	for len(s.times) < setupRuns {
		e, err := s.next()
		if err != nil {
			return err
		}
		e.stop()
	}
	res.set("setup_s", median(append([]float64(nil), s.times...)), "s", len(s.times))
	sw.lap("set-ups")
	return nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// liveHeapMB is the heap in use after a forced collection, state still
// loaded.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// openLoopMetrics fills in the latencies of the open-loop phase.
func (r *psRun) openLoopMetrics(res *result) {
	pub := r.publishLat.samples
	p50, n := windowedQuantile(pub, latencyWindow, r.openDur, 0.5)
	res.set("publish_p50_us", p50, "us", n)
	p90, _ := windowedQuantile(pub, latencyWindow, r.openDur, 0.9)
	res.set("loadgen.publish_p90_us", p90, "us", n)

	var parts []*series
	for _, pr := range r.probes {
		parts = append(parts, &pr.e2e)
	}
	e2e := merge(parts...)
	p50, n = windowedQuantile(e2e, latencyWindow, r.openDur, 0.5)
	res.set("e2e_p50_us", p50, "us", n)
	p90, _ = windowedQuantile(e2e, latencyWindow, r.openDur, 0.9)
	res.set("loadgen.e2e_p90_us", p90, "us", n)

	ctl := r.controlLat.samples
	p50, n = windowedQuantile(ctl, latencyWindow, r.openDur, 0.5)
	res.set("control_p50_us", p50, "us", n)
	p90, _ = windowedQuantile(ctl, latencyWindow, r.openDur, 0.9)
	res.set("loadgen.control_p90_us", p90, "us", n)
}

// closedLoopMetrics fills in the throughput of the closed-loop phase.
func (r *psRun) closedLoopMetrics(res *result) {
	work := r.deliveries
	switch {
	case r.load.AckedThroughput:
		work = nil
		for _, pr := range r.probes {
			work = append(work, &pr.acks)
		}
	case r.load.ClosedControl > 0:
		// A fixed amount of work: total over total.
		n := len(merge(r.pairs...))
		res.set("throughput_per_s", float64(n)/r.closedDur.Seconds(), "1/s", n)
		return
	}
	rate, n := windowedRate(merge(work...), rateWindow, r.closedDur)
	res.set("throughput_per_s", rate, "1/s", n)
}
