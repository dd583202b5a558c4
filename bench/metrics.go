package main

// metricDef is one catalogue entry. BENCHMARK.json lists the same names,
// units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	// Floor, in the metric's unit, is the change compare lets pass however
	// large a share it is (ISSUE 13 bounds setup_s by "25 % or 0.5 s": a
	// set-up of 70 ms moves by a quarter on a scheduler hiccup).
	// BENCHMARK.json has no field for it, so the driver gates on Bound alone.
	Floor float64
}

// endToEndMetrics is what a user of the system sees. Every workload
// measures every one of them, with the definition in README.md.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.5},
	{Name: "publish_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "e2e_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "control_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayerMetrics are measured from outside each layer, on the traced run.
// They inform and do not gate.
var perLayerMetrics = []metricDef{
	// loadgen: was the generator, not the system, the limit?
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_max_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.e2e_mean_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.e2e_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.e2e_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.e2e_p90_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.publish_p90_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.control_p90_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "loadgen.stages_sum_us", Unit: "us", Better: "lower"},
	// reefcluster
	{Name: "reefcluster.publish_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "reefcluster.forward_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "reefcluster.publish_skips", Unit: "count", Better: "lower"},
	{Name: "reefcluster.forward_errors", Unit: "count", Better: "lower"},
	{Name: "reefcluster.self_ms", Unit: "ms", Better: "lower"},
	// reefstream
	{Name: "reefstream.ingress_us_mean", Unit: "us", Better: "lower"},
	{Name: "reefstream.push_us_mean", Unit: "us", Better: "lower"},
	{Name: "reefstream.ack_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "reefstream.coalesced_events_mean", Unit: "count", Better: "higher"},
	{Name: "reefstream.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "reefstream.frame_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "reefstream.self_ms", Unit: "ms", Better: "lower"},
	// reef: Centralized, engine, shard router
	{Name: "reef.publish_apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "reef.publish_apply_us_mean", Unit: "us", Better: "lower"},
	{Name: "reef.publish_apply_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "reef.fetch_apply_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "reef.ack_apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "reef.ingest_apply_us_per_click", Unit: "us", Better: "lower"},
	{Name: "reef.subscribe_apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "reef.self_ms", Unit: "ms", Better: "lower"},
	// pubsub
	{Name: "pubsub.match_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "pubsub.matched_per_event", Unit: "count", Better: "lower"},
	{Name: "pubsub.publish_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "pubsub.subscribe_us_p50", Unit: "us", Better: "lower"},
	{Name: "pubsub.dropped", Unit: "count", Better: "lower"},
	// delivery (+ frontend pump)
	{Name: "delivery.retain_us_mean", Unit: "us", Better: "lower"},
	{Name: "delivery.append_ns", Unit: "ns", Better: "lower"},
	{Name: "delivery.fetch_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "delivery.ack_ns", Unit: "ns", Better: "lower"},
	{Name: "delivery.retained_peak", Unit: "count", Better: "lower"},
	{Name: "delivery.redeliveries", Unit: "count", Better: "lower"},
	{Name: "delivery.dead_letters", Unit: "count", Better: "lower"},
	{Name: "delivery.lease_expiries", Unit: "count", Better: "lower"},
	{Name: "delivery.self_ms", Unit: "ms", Better: "lower"},
	// durable
	{Name: "durable.wal_records", Unit: "count", Better: "lower"},
	{Name: "durable.wal_bytes", Unit: "B", Better: "lower"},
	{Name: "durable.wal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "durable.record_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.recover_s", Unit: "s", Better: "lower"},
	{Name: "durable.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "durable.recovered_records", Unit: "count", Better: "lower"},
	{Name: "durable.recover_us_per_record", Unit: "us", Better: "lower"},
	// replication
	{Name: "replication.offer_ns", Unit: "ns", Better: "lower"},
	{Name: "replication.apply_us_per_record", Unit: "us", Better: "lower"},
	{Name: "replication.shipped_records", Unit: "count", Better: "lower"},
	{Name: "replication.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "replication.pending_peak", Unit: "count", Better: "lower"},
	{Name: "replication.resyncs", Unit: "count", Better: "lower"},
	{Name: "replication.drain_s", Unit: "s", Better: "lower"},
	{Name: "replication.self_ms", Unit: "ms", Better: "lower"},
	// reefhttp + reefclient
	{Name: "reefhttp.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "reefhttp.ingest_overhead_us_per_click", Unit: "us", Better: "lower"},
	{Name: "reefhttp.self_ms", Unit: "ms", Better: "lower"},
	// core / recommend / ir (the attention workload's batch path)
	{Name: "core.clicks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.pipeline_s", Unit: "s", Better: "lower"},
	{Name: "core.pipeline_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.crawled_pages", Unit: "count", Better: "higher"},
	{Name: "core.crawl_errors", Unit: "count", Better: "lower"},
	{Name: "core.pages_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recommend.recommendations", Unit: "count", Better: "higher"},
	{Name: "recommend.recs_per_user_day", Unit: "count", Better: "higher"},
	{Name: "recommend.accept_us_p50", Unit: "us", Better: "lower"},
	{Name: "ir.rank_us_p50", Unit: "us", Better: "lower"},
	// runtime
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
	// trace
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}
