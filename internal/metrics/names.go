package metrics

import "strconv"

// This file is the single source of truth for metric naming. Every
// family exported anywhere in the repo is declared here as a Def: its
// Prometheus name and Kind, and, for a deployment series, Key, the name
// its value takes in the flat Stats() view. The code that produces a
// value reports it as a Sample of its Def, labelled at source;
// /v1/metrics renders samples by Def.Name and Stats() flattens the same
// samples by Def.Key, so neither name is ever parsed back into the
// other. A repo-wide check (TestMetricNamesUseConstantTable) rejects
// "reef_"-prefixed string literals outside this package, forcing new
// metrics through this table.

// Kind classifies a metric family for the exposition TYPE line.
type Kind uint8

const (
	// KindGauge is a value that can move both directions.
	KindGauge Kind = iota
	// KindCounter is monotonically increasing.
	KindCounter
	// KindHistogram has cumulative buckets, a sum and a count.
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Def declares one metric family. Key is "" for families that exist
// only in a Registry (instrumentation that has no Stats() view).
type Def struct {
	// Key is the family's flat Stats() key (before Sample.Key adds a
	// breakdown prefix), "" for registry-only families.
	Key string
	// Name is the Prometheus family name (reef_<subsystem>_<name>).
	Name string
	// Kind drives the exposition TYPE line.
	Kind Kind
	// Help is the exposition HELP line.
	Help string
}

// Engine / deployment families.
var (
	ClicksStored           = Def{"clicks_stored", "reef_engine_clicks_stored", KindGauge, "Click records held in the store."}
	DistinctServers        = Def{"distinct_servers", "reef_engine_distinct_servers", KindGauge, "Distinct origin servers seen in stored clicks."}
	FeedsDiscovered        = Def{"feeds_discovered", "reef_engine_feeds_discovered", KindGauge, "Distinct feeds discovered by the crawler."}
	UploadBytes            = Def{"upload_bytes", "reef_engine_upload_bytes", KindGauge, "Bytes uploaded by frontends."}
	ProxyFeeds             = Def{"proxy_feeds", "reef_engine_proxy_feeds", KindGauge, "Feeds tracked by the proxy."}
	PendingRecommendations = Def{"pending_recommendations", "reef_engine_pending_recommendations", KindGauge, "Recommendations awaiting a user decision."}
	UsersWithFrontends     = Def{"users_with_frontends", "reef_engine_users_with_frontends", KindGauge, "Users with a registered frontend."}
	Shards                 = Def{"shards", "reef_shards", KindGauge, "Shard count of the deployment."}
)

// Component families: the series of a shard's server, broker and proxy
// registries, keyed by the registry name behind the prefix that
// AppendRegistry is given ("", "broker_", "proxy_").
var (
	ClicksReceived      = Def{"clicks_received", "reef_engine_clicks_received_total", KindCounter, "Clicks received by the recommendation server."}
	JournalErrors       = Def{"journal_errors", "reef_engine_journal_errors_total", KindCounter, "Server flag records the journal failed to append."}
	PipelineRuns        = Def{"pipeline_runs", "reef_engine_pipeline_runs_total", KindCounter, "Crawl and analysis rounds run."}
	URLsCrawled         = Def{"urls_crawled", "reef_engine_urls_crawled_total", KindCounter, "URLs crawled by the pipeline."}
	Recommendations     = Def{"recommendations", "reef_engine_recommendations_total", KindCounter, "Recommendations generated by the pipeline."}
	BrokerPublished     = Def{"broker_published", "reef_engine_broker_published_total", KindCounter, "Events published to the broker."}
	BrokerDelivered     = Def{"broker_delivered", "reef_engine_broker_delivered_total", KindCounter, "Deliveries handed to matching subscriptions."}
	BrokerDropped       = Def{"broker_dropped", "reef_engine_broker_dropped_total", KindCounter, "Deliveries lost to a full subscription queue."}
	BrokerCanceled      = Def{"broker_canceled", "reef_engine_broker_canceled_total", KindCounter, "Deliveries skipped because the subscription was canceled after the match (broker_dropped counts only queue overflow)."}
	BrokerSubscribes    = Def{"broker_subscribes", "reef_engine_broker_subscribes_total", KindCounter, "Broker subscriptions made."}
	BrokerUnsubscribes  = Def{"broker_unsubscribes", "reef_engine_broker_unsubscribes_total", KindCounter, "Broker subscriptions canceled."}
	BrokerSubscriptions = Def{"broker_subscriptions", "reef_engine_broker_subscriptions", KindGauge, "Live broker subscriptions."}
	ProxyPolls          = Def{"proxy_polls", "reef_engine_proxy_polls_total", KindCounter, "Feed polls issued by the proxy."}
	ProxyPollsSaved     = Def{"proxy_polls_saved", "reef_engine_proxy_polls_saved_total", KindCounter, "Polls that per-user pulling would have issued and shared polling saved."}
	ProxyPollErrors     = Def{"proxy_poll_errors", "reef_engine_proxy_poll_errors_total", KindCounter, "Feed polls that failed."}
	ProxyItemsPublished = Def{"proxy_items_published", "reef_engine_proxy_items_published_total", KindCounter, "Feed items the proxy published."}
)

// Distributed deployment families.
var (
	DistributedPeers      = Def{"peers", "reef_distributed_peers", KindGauge, "Broker peers in the distributed deployment."}
	DistributedSubs       = Def{"subscriptions", "reef_distributed_subscriptions", KindGauge, "Subscriptions across distributed peers."}
	DistributedKnownFeeds = Def{"known_feeds", "reef_distributed_known_feeds", KindGauge, "Feeds known across distributed peers."}
	DistributedApplied    = Def{"applied_recommendations", "reef_distributed_applied_recommendations", KindGauge, "Recommendations applied across distributed peers."}
)

// Delivery families (from delivery.Totals).
var (
	DeliveryReliableSubs  = Def{"delivery_reliable_subs", "reef_delivery_reliable_subs", KindGauge, "Reliable (at-least-once) subscription queues."}
	DeliveryRetained      = Def{"delivery_retained", "reef_delivery_retained", KindGauge, "Events retained awaiting ack across reliable queues."}
	DeliveryAcked         = Def{"delivery_acked", "reef_delivery_acked_total", KindCounter, "Events acknowledged and released."}
	DeliveryRedeliveries  = Def{"delivery_redeliveries", "reef_delivery_redeliveries_total", KindCounter, "Events handed out again after a nack or lease expiry."}
	DeliveryDeadLetters   = Def{"delivery_deadletters", "reef_delivery_deadletters_total", KindCounter, "Events moved to the dead-letter queue."}
	DeliveryLeaseExpiries = Def{"delivery_lease_expiries", "reef_delivery_lease_expiries_total", KindCounter, "Delivery leases that expired before an ack."}
)

// Cluster router families.
var (
	ClusterNodes          = Def{"nodes", "reef_cluster_nodes", KindGauge, "Nodes in the cluster seed list."}
	ClusterNodesUp        = Def{"nodes_up", "reef_cluster_nodes_up", KindGauge, "Nodes currently probed Up."}
	ClusterNodesDraining  = Def{"nodes_draining", "reef_cluster_nodes_draining", KindGauge, "Nodes currently draining."}
	ClusterNodesDown      = Def{"nodes_down", "reef_cluster_nodes_down", KindGauge, "Nodes currently probed Down."}
	ClusterForwardErrors  = Def{"cluster_forward_errors", "reef_cluster_forward_errors_total", KindCounter, "Forwarded calls that failed with a node fault."}
	ClusterPublishSkips   = Def{"cluster_publish_skips", "reef_cluster_publish_skips_total", KindCounter, "Fan-out publish legs skipped because every replica was down."}
	ClusterPublishPartial = Def{"cluster_publish_partial", "reef_cluster_publish_partial_total", KindCounter, "Fan-out publishes that succeeded on only part of the replica set."}
)

// Replication families.
var (
	ReplicationReplicas       = Def{"replication_replicas", "reef_replication_replicas", KindGauge, "Configured replica count."}
	ReplicationPeers          = Def{"replication_peers", "reef_replication_peers", KindGauge, "Outbound replication peers."}
	ReplicationPending        = Def{"replication_pending", "reef_replication_pending", KindGauge, "Records queued and not yet acked, a resync's refill included, summed over the per-peer queues; a record bound for two peers counts twice."}
	ReplicationResyncs        = Def{"replication_resyncs", "reef_replication_resyncs_total", KindCounter, "Resyncs of peers that fell off their own bounded queue: each refills that peer's queue with its share of one state cut."}
	ReplicationLagP99Micros   = Def{"replication_lag_p99_micros", "reef_replication_lag_p99_micros", KindGauge, "p99 replication shipping lag in microseconds."}
	ReplicationAppliedRecords = Def{"replication_applied_records", "reef_replication_applied_records_total", KindCounter, "Replicated records applied from primaries."}
)

// HTTP middleware families (registry-only).
var (
	HTTPRequests       = Def{"", "reef_http_requests_total", KindCounter, "HTTP requests served, labeled by route and status class."}
	HTTPRequestSeconds = Def{"", "reef_http_request_seconds", KindHistogram, "HTTP request latency in seconds, labeled by route."}
	HTTPInFlight       = Def{"", "reef_http_in_flight", KindGauge, "HTTP requests currently being served."}
)

// Stream data-plane families (registry-only).
var (
	StreamConns       = Def{"", "reef_stream_conns", KindGauge, "Open stream connections."}
	StreamFramesIn    = Def{"", "reef_stream_frames_in_total", KindCounter, "Publish frames decoded from stream connections."}
	StreamFramesOut   = Def{"", "reef_stream_frames_out_total", KindCounter, "Frames written to stream connections (acks and deliveries)."}
	StreamEventsIn    = Def{"", "reef_stream_events_in_total", KindCounter, "Events ingested over stream connections."}
	StreamClicksIn    = Def{"", "reef_stream_clicks_in_total", KindCounter, "Clicks ingested over stream connections."}
	StreamBatchEvents = Def{"", "reef_stream_batch_events", KindHistogram, "Coalesced events applied per stream batch."}
	StreamConsumers   = Def{"", "reef_stream_consumers", KindGauge, "Consumers attached to the stream consume plane."}
	StreamDelivered   = Def{"", "reef_stream_delivered_total", KindCounter, "Events pushed to stream consumers."}
	StreamAckSeconds  = Def{"", "reef_stream_ack_seconds", KindHistogram, "Client-observed publish ack round-trip latency in seconds."}
)

// Trace families (registry-only).
var (
	TraceSpans = Def{"", "reef_trace_spans_total", KindCounter, "Spans recorded into the trace ring (including evicted)."}
)

// Defs lists every Def above; exposition and the naming check walk it.
var Defs = []Def{
	ClicksStored, DistinctServers, FeedsDiscovered, UploadBytes, ProxyFeeds,
	PendingRecommendations, UsersWithFrontends, Shards,
	ClicksReceived, JournalErrors, PipelineRuns, URLsCrawled, Recommendations,
	BrokerPublished, BrokerDelivered, BrokerDropped, BrokerCanceled,
	BrokerSubscribes, BrokerUnsubscribes, BrokerSubscriptions,
	ProxyPolls, ProxyPollsSaved, ProxyPollErrors, ProxyItemsPublished,
	DistributedPeers, DistributedSubs, DistributedKnownFeeds, DistributedApplied,
	DeliveryReliableSubs, DeliveryRetained, DeliveryAcked, DeliveryRedeliveries,
	DeliveryDeadLetters, DeliveryLeaseExpiries,
	ClusterNodes, ClusterNodesUp, ClusterNodesDraining, ClusterNodesDown,
	ClusterForwardErrors, ClusterPublishSkips, ClusterPublishPartial,
	ReplicationReplicas, ReplicationPeers, ReplicationPending,
	ReplicationResyncs, ReplicationLagP99Micros, ReplicationAppliedRecords,
	HTTPRequests, HTTPRequestSeconds, HTTPInFlight,
	StreamConns, StreamFramesIn, StreamFramesOut, StreamEventsIn, StreamClicksIn,
	StreamBatchEvents, StreamConsumers, StreamDelivered, StreamAckSeconds,
	TraceSpans,
}

// merge folds one more producer's value into a family total: the sum,
// except for the replication lag gauge, whose per-node p99s do not add
// and combine by maximum.
func (d Def) merge(total, v float64) float64 {
	if d == ReplicationLagP99Micros {
		return max(total, v)
	}
	return total + v
}

// byKey indexes the defs that have a flat Stats() key.
var byKey = func() map[string]Def {
	m := make(map[string]Def, len(Defs))
	for _, d := range Defs {
		if d.Key != "" {
			m[d.Key] = d
		}
	}
	return m
}()

// Label is one exposition label pair.
type Label struct{ Key, Value string }

// Shard labels a sample as shard i's share of its family.
func Shard(i int) Label { return Label{"shard", strconv.Itoa(i)} }

// Node labels a sample as one cluster node's share of its family.
func Node(id string) Label { return Label{"node", id} }

// Sample is one value of a family as its producer reports it. Label is
// a Shard or Node breakdown, or zero for the producer's total.
type Sample struct {
	Def   Def
	Label Label
	Value float64
}

// Key is the sample's name in the flat Stats() view: Def.Key, prefixed
// "shard<i>_" or "node_<id>_" by a breakdown label.
func (s Sample) Key() string {
	switch s.Label.Key {
	case "shard":
		return "shard" + s.Label.Value + "_" + s.Def.Key
	case "node":
		return "node_" + s.Label.Value + "_" + s.Def.Key
	}
	return s.Def.Key
}

// Flat is the Stats() view of samples, one key per sample.
func Flat(samples []Sample) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Key()] = s.Value
	}
	return out
}

// Decode reads a producer's flat view back into its totals, by exact
// Def.Key. Breakdown keys are not read: a shard's or a node's share is
// served by that producer's own scrape.
func Decode(flat map[string]float64) []Sample {
	var out []Sample
	for _, d := range Defs {
		if v, ok := flat[d.Key]; ok && d.Key != "" {
			out = append(out, Sample{Def: d, Value: v})
		}
	}
	return out
}

// Combine merges the samples of several producers into one per series,
// by each family's merge rule, in first-seen order.
func Combine(parts ...[]Sample) []Sample {
	type series struct {
		d Def
		l Label
	}
	var out []Sample
	at := make(map[series]int)
	for _, p := range parts {
		for _, s := range p {
			k := series{s.Def, s.Label}
			if i, ok := at[k]; ok {
				out[i].Value = s.Def.merge(out[i].Value, s.Value)
				continue
			}
			at[k] = len(out)
			out = append(out, s)
		}
	}
	return out
}

// AppendRegistry appends a component registry's series to out, each as
// a sample of the Def keyed prefix+name: the broker's "dropped" counter
// under prefix "broker_" is BrokerDropped. A series no Def names is left
// out, and TestComponentSeriesHaveDefs holds every registry name the
// deployments report to one.
func AppendRegistry(out []Sample, reg *Registry, prefix string) []Sample {
	for name, v := range reg.Snapshot() {
		if d, ok := byKey[prefix+name]; ok {
			out = append(out, Sample{Def: d, Value: v})
		}
	}
	return out
}
