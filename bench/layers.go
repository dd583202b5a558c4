package main

import (
	"context"
	"runtime"
	"time"

	"reef"
	"reef/internal/websim"
)

// layerInputs is what a traced run gathers beside the tracer's own series,
// from the public counters: Stats(), StorageInfo(), Manager.Status().
type layerInputs struct {
	stats   reef.Stats
	storage reef.StorageInfo // summed over the nodes, before node 0 is stopped

	shipped, resyncs int64
	lagP99           float64
	drain            time.Duration

	before, after runtime.MemStats
	ops           int64 // operations the phases attempted, for allocs per op

	recoverTimes []time.Duration
	recovered    reef.StorageInfo
	snapshot     time.Duration

	// attention's batch path; nil on the pub-sub workloads.
	att *attentionRun
	web *websim.Web
}

// traceSegments is how many equal parts of the closed-loop phase alternate
// between tracing off and on (off first). Alternating keeps a drift over
// the phase from reading as overhead.
const traceSegments = 4

// pollLayers samples, on a traced run, what only a peak describes while
// the phases run: goroutines, heap, retained deliveries and the replication
// backlog. (ReadMemStats stops the world, so an untraced run does not poll.)
func (r *psRun) pollLayers(stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	ctx := context.Background()
	var ms runtime.MemStats
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			r.goroutinesPeak = max(r.goroutinesPeak, runtime.NumGoroutine())
			runtime.ReadMemStats(&ms)
			r.heapPeak = max(r.heapPeak, ms.HeapInuse)
			if st, err := r.env.stats(ctx); err == nil {
				r.retainedPeak = max(r.retainedPeak, st["delivery_retained"])
			}
			var pending int64
			for _, n := range r.env.fleet.nodes {
				if n.mgr == nil {
					continue
				}
				for _, p := range n.mgr.Status().Peers {
					pending += p.Pending
				}
			}
			r.pendingPeak = max(r.pendingPeak, pending)
		}
	}
}

// collectLayers reads the counters that must be read while the stack is
// still up.
func collectLayers(ctx context.Context, e *env, st reef.Stats) (*layerInputs, error) {
	lay := &layerInputs{stats: st}
	drain, err := e.fleet.drainReplication(drainTimeout)
	if err != nil {
		return nil, err
	}
	lay.drain = drain
	for _, n := range e.fleet.nodes {
		info, err := n.dep.StorageInfo(ctx)
		if err != nil {
			return nil, err
		}
		lay.storage.WALRecords += info.WALRecords
		lay.storage.WALBytes += info.WALBytes
		if n.mgr == nil {
			continue
		}
		for _, p := range n.mgr.Status().Peers {
			lay.shipped += p.Shipped
			lay.resyncs += p.Resyncs
			lay.lagP99 = max(lay.lagP99, p.LagP99Micros)
		}
	}
	return lay, nil
}

// timeSnapshot reopens node 0's directory once more after the recover
// cycles and times one explicit compacting snapshot of the state the run
// left (automatic compaction is off during the phases, see walSync).
func timeSnapshot(f *fleet) (time.Duration, error) {
	dep, err := reef.NewCentralized(f.nodes[0].spec.options()...)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = dep.Snapshot(context.Background())
	d := time.Since(start)
	if cerr := dep.Close(); err == nil {
		err = cerr
	}
	return d, err
}

// segmentRates splits counted samples of a phase of planned length d into
// traceSegments parts and returns the rate while tracing was off and while
// it was on.
func segmentRates(samples []sample, d, actual time.Duration) (off, on float64) {
	seg := d / traceSegments
	var count, length [2]float64
	for i := 0; i < traceSegments; i++ {
		lo, hi := time.Duration(i)*seg, time.Duration(i+1)*seg
		if i == traceSegments-1 && actual > hi {
			hi = actual
		}
		if hi > actual {
			hi = actual
		}
		if hi <= lo {
			continue
		}
		length[i%2] += (hi - lo).Seconds()
		for _, s := range samples {
			if s.at >= lo && s.at < hi {
				count[i%2] += s.v
			}
		}
	}
	if length[0] > 0 {
		off = count[0] / length[0]
	}
	if length[1] > 0 {
		on = count[1] / length[1]
	}
	return off, on
}

func overheadPct(off, on float64) float64 {
	if off <= 0 {
		return 0
	}
	return (off - on) / off * 100
}

// perLayer fills in every per-layer metric. What a workload does not
// exercise stays 0.
func (r *psRun) perLayer(res *result, lay *layerInputs, rc runConfig) error {
	batch := r.load.OpenBatch
	units := make(map[string]string, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		units[d.Name] = d.Unit
		if !res.has(d.Name) {
			res.set(d.Name, 0, d.Unit, 0)
		}
	}
	set := func(name string, v float64, n int) {
		unit, ok := units[name]
		if !ok {
			panic("bench: " + name + " is not in the per-layer catalogue")
		}
		res.set(name, v, unit, n)
	}
	t := r.tr

	// loadgen
	late := values(r.lateOpen)
	set("loadgen.late_p99_us", quantile(late, 0.99), len(late))
	set("loadgen.late_max_us", quantile(late, 1), len(late))
	var parts []*series
	for _, pr := range r.probes {
		parts = append(parts, &pr.e2e)
	}
	e2e := merge(parts...)
	ev := values(e2e)
	set("loadgen.e2e_mean_us", mean(ev), len(ev))
	set("loadgen.e2e_p99_us", quantile(ev, 0.99), len(ev))
	set("loadgen.e2e_p999_us", quantile(ev, 0.999), len(ev))
	p90, n := windowedQuantile(e2e, latencyWindow, r.openDur, 0.9)
	set("loadgen.e2e_p90_us", p90, n)
	p90, n = windowedQuantile(r.publishLat.samples, latencyWindow, r.openDur, 0.9)
	set("loadgen.publish_p90_us", p90, n)
	p90, n = windowedQuantile(r.controlLat.samples, latencyWindow, r.openDur, 0.9)
	set("loadgen.control_p90_us", p90, n)

	// The boundary timestamps tile due -> receipt: wait, ingress, apply,
	// retain, push. Their means add up to loadgen.e2e_mean_us over the
	// events that have every stamp.
	stage := r.stages()
	set("loadgen.wait_us_mean", mean(stage[0]), len(stage[0]))
	set("reefstream.ingress_us_mean", mean(stage[1]), len(stage[1]))
	set("reef.publish_apply_us_mean", mean(stage[2]), len(stage[2]))
	set("delivery.retain_us_mean", mean(stage[3]), len(stage[3]))
	set("reefstream.push_us_mean", mean(stage[4]), len(stage[4]))
	var staged float64
	for i := range stage {
		staged += mean(stage[i])
	}
	set("loadgen.stages_sum_us", staged, len(stage[0]))

	// reefcluster: only where the calls enter through the router.
	if r.env.publishLayer == "reefcluster" {
		set("reefcluster.publish_call_us_p50", r.publishDur.p50(), len(r.publishDur.durs))
		set("reefcluster.forward_call_us_p50", r.subCall.p50(), len(r.subCall.durs))
	}
	set("reefcluster.publish_skips", lay.stats["cluster_publish_skips"], 1)
	set("reefcluster.forward_errors", lay.stats["cluster_forward_errors"], 1)

	// reefstream
	var ackCalls []float64
	for _, pr := range r.probes {
		ackCalls = append(ackCalls, pr.ackCall.durs...)
	}
	if r.env.publishLayer != "reef" {
		set("reefstream.ack_rtt_us_p50", median(ackCalls)-t.nodeAck.p50(), len(ackCalls))
	}
	_, applies, applied := t.nodePublish.total()
	if applies > 0 {
		set("reefstream.coalesced_events_mean", float64(applied)/float64(applies), applies)
	}
	encNs, frameBytes := probeEncode(r.plan, batch)
	set("reefstream.encode_ns_per_event", encNs, probeEvents)
	set("reefstream.frame_bytes_per_event", frameBytes, probeEvents)

	// reef
	set("reef.publish_apply_us_p50", t.nodePublish.p50(), applies)
	set("reef.publish_apply_ns_per_event", t.nodePublish.perUnitNanos(), int(applied))
	set("reef.fetch_apply_ns_per_event", t.nodeFetch.perUnitNanos(), len(t.nodeFetch.durs))
	set("reef.ack_apply_us_p50", t.nodeAck.p50(), len(t.nodeAck.durs))
	set("reef.subscribe_apply_us_p50", t.nodeSubscribe.p50(), len(t.nodeSubscribe.durs))

	// pubsub
	matchNs, matched := probeIndex(r.plan)
	set("pubsub.match_ns_per_event", matchNs, probeEvents)
	set("pubsub.matched_per_event", matched, probeEvents)
	deliveryNs, subscribeUs, err := probeBroker(r.plan, batch)
	if err != nil {
		return err
	}
	set("pubsub.publish_ns_per_delivery", deliveryNs, probeRepeats)
	set("pubsub.subscribe_us_p50", subscribeUs, 200)
	set("pubsub.dropped", lay.stats["broker_dropped"], 1)

	// delivery
	appendNs, fetchNs, ackNs := probeQueue(r.plan)
	set("delivery.append_ns", appendNs, probeEvents)
	set("delivery.fetch_ns_per_event", fetchNs, probeEvents)
	set("delivery.ack_ns", ackNs, probeEvents/64)
	set("delivery.retained_peak", r.retainedPeak, 1)
	set("delivery.redeliveries", lay.stats["delivery_redeliveries"], 1)
	set("delivery.dead_letters", lay.stats["delivery_deadletters"], 1)
	set("delivery.lease_expiries", lay.stats["delivery_lease_expiries"], 1)

	// durable
	set("durable.wal_records", float64(lay.storage.WALRecords), 1)
	set("durable.wal_bytes", float64(lay.storage.WALBytes), 1)
	if lay.storage.WALRecords > 0 {
		set("durable.wal_bytes_per_op", float64(lay.storage.WALBytes)/float64(lay.storage.WALRecords), int(lay.storage.WALRecords))
	}
	if r.env.fleet.durable() {
		recordNs, err := probeJournal(rc.base)
		if err != nil {
			return err
		}
		set("durable.record_ns", recordNs, 4096)
	}
	set("durable.snapshot_s", lay.snapshot.Seconds(), 1)
	set("durable.recovered_records", float64(lay.recovered.RecoveredRecords), 1)
	if lay.recovered.RecoveredRecords > 0 {
		set("durable.recover_us_per_record", median(secondsOf(lay.recoverTimes))*1e6/float64(lay.recovered.RecoveredRecords), len(lay.recoverTimes))
	}

	// replication
	set("replication.offer_ns", t.tapOffer.perUnitNanos(), len(t.tapOffer.durs))
	set("replication.apply_us_per_record", t.replApply.perUnitNanos()/1e3, len(t.replApply.durs))
	set("replication.shipped_records", float64(lay.shipped), 1)
	set("replication.lag_p99_us", lay.lagP99, 1)
	set("replication.pending_peak", float64(r.pendingPeak), 1)
	set("replication.resyncs", float64(lay.resyncs), 1)
	set("replication.drain_s", lay.drain.Seconds(), 1)

	// reefhttp + reefclient: what the control call costs on top of the
	// node's own Subscribe, where the control plane is REST.
	if r.env.controlLayer != "reef" {
		set("reefhttp.overhead_us_p50", r.subCall.p50()-t.nodeSubscribe.p50(), len(r.subCall.durs))
	}

	// runtime
	if lay.ops > 0 {
		set("runtime.allocs_per_op", float64(lay.after.Mallocs-lay.before.Mallocs)/float64(lay.ops), int(lay.ops))
	}
	set("runtime.gc_cycles", float64(lay.after.NumGC-lay.before.NumGC), 1)
	set("runtime.gc_cpu_fraction", lay.after.GCCPUFraction, 1)
	set("runtime.heap_peak_mb", float64(r.heapPeak)/(1<<20), 1)
	set("runtime.goroutines_peak", float64(r.goroutinesPeak), 1)

	// trace
	work := r.deliveries
	switch {
	case r.load.AckedThroughput:
		work = nil
		for _, pr := range r.probes {
			work = append(work, &pr.acks)
		}
	case r.load.ClosedControl > 0:
		work = r.pairs
	}
	if samples := merge(work...); len(samples) > 0 {
		off, on := segmentRates(samples, r.closedPlanned, r.closedDur)
		set("trace.overhead_pct", overheadPct(off, on), len(samples))
	}
	// Self time: what each layer's spans took beyond the spans they caused.
	t.mu.Lock()
	spans := len(t.spans)
	self := selfTimes(t.spans)
	perLayer := make(map[string]int)
	for i := range t.spans {
		perLayer[t.spans[i].Layer]++
	}
	t.mu.Unlock()
	set("trace.spans", float64(spans), spans)
	for _, layer := range spanLayers {
		set(layer+".self_ms", float64(self[layer].Nanoseconds())/1e6, perLayer[layer])
	}

	if lay.att != nil {
		lay.att.perLayer(set, lay)
	}
	return t.writeSpans(rc.spanOut)
}

// perLayer fills in the batch path's layers.
func (a *attentionRun) perLayer(set func(string, float64, int), lay *layerInputs) {
	t := a.tr
	clicks := a.in.total
	set("core.clicks_per_s", float64(clicks)/a.ingestWall.Seconds(), clicks)
	set("core.pipeline_s", a.pipelineWall.Seconds(), len(a.rounds))
	set("core.pipeline_round_ms_p50", median(append([]float64(nil), a.rounds...)), len(a.rounds))
	set("core.crawled_pages", float64(a.pipeline.Crawled), 1)
	set("core.crawl_errors", float64(a.pipeline.CrawlErrors), 1)
	if a.pipelineWall > 0 {
		set("core.pages_per_s", float64(a.pipeline.Crawled)/a.pipelineWall.Seconds(), a.pipeline.Crawled)
	}
	set("recommend.recommendations", float64(a.recs), a.recs)
	set("recommend.recs_per_user_day", float64(a.recs)/float64(len(a.in.users)*len(a.in.days)), a.recs)
	set("recommend.accept_us_p50", a.accept.p50(), len(a.accept.durs))
	set("reef.ingest_apply_us_per_click", t.nodeIngest.perUnitNanos()/1e3, len(t.nodeIngest.durs))
	clientSum, _, clientClicks := a.ingestCall.total()
	nodeSum, _, _ := t.nodeIngest.total()
	if clientClicks > 0 {
		set("reefhttp.ingest_overhead_us_per_click", (clientSum-nodeSum)/float64(clientClicks), int(clientClicks))
	}
	set("reefcluster.forward_call_us_p50", a.ingestCall.p50(), len(a.ingestCall.durs))
	set("trace.overhead_pct", overheadPct(a.rateOff(), a.rateOn()), clicks)

	pages := make(map[string]string)
	for _, s := range lay.web.Servers(websim.KindContent) {
		for path, p := range s.Pages {
			pages[s.URL(path)] = p.Text
		}
	}
	if us, err := probeRank(pages); err == nil {
		set("ir.rank_us_p50", us, min(len(pages), 200))
	}
}
