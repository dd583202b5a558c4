package metrics

import (
	"strconv"
	"strings"
)

// This file is the single source of truth for metric naming. Every
// Prometheus family exported anywhere in the repo — and every legacy
// Stats() key that maps onto one — is declared here as a Def, so the
// cluster merge rules (internal/routing.Merge, keyed by the Stats()
// key) and the /v1/metrics exposition (keyed by the Prometheus name)
// cannot drift apart. Stats() producers reference Def.Key; exposition
// and registry instrumentation reference Def.Name. A repo-wide check
// (TestMetricNamesUseConstantTable) rejects "reef_"-prefixed string
// literals outside this package, forcing new metrics through this
// table.

// Kind classifies a metric family for the exposition TYPE line.
type Kind uint8

const (
	// KindGauge is a value that can move both directions.
	KindGauge Kind = iota
	// KindCounter is monotonically increasing.
	KindCounter
	// KindHistogram has cumulative buckets, a sum and a count.
	KindHistogram
	// KindUntyped is used for derived series (".mean"/".max"
	// projections, unknown stats keys).
	KindUntyped
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Def binds one legacy Stats() key to its Prometheus family. Key is ""
// for families that exist only in a Registry (instrumentation that has
// no Stats() projection).
type Def struct {
	// Key is the Stats() map key (without shard/node prefixes or
	// ".count"/".mean"/".max" suffixes), "" for registry-only families.
	Key string
	// Name is the Prometheus family name (reef_<subsystem>_<name>).
	Name string
	// Kind drives the exposition TYPE line.
	Kind Kind
	// Help is the exposition HELP line.
	Help string
}

// Engine / deployment families (Stats()-backed).
var (
	ClicksStored           = Def{"clicks_stored", "reef_engine_clicks_stored", KindGauge, "Click records held in the store."}
	DistinctServers        = Def{"distinct_servers", "reef_engine_distinct_servers", KindGauge, "Distinct origin servers seen in stored clicks."}
	FeedsDiscovered        = Def{"feeds_discovered", "reef_engine_feeds_discovered", KindGauge, "Distinct feeds discovered by the crawler."}
	UploadBytes            = Def{"upload_bytes", "reef_engine_upload_bytes", KindGauge, "Bytes uploaded by frontends."}
	ProxyFeeds             = Def{"proxy_feeds", "reef_engine_proxy_feeds", KindGauge, "Feeds tracked by the proxy."}
	PendingRecommendations = Def{"pending_recommendations", "reef_engine_pending_recommendations", KindGauge, "Recommendations awaiting a user decision."}
	UsersWithFrontends     = Def{"users_with_frontends", "reef_engine_users_with_frontends", KindGauge, "Users with a registered frontend."}
	ProxyStat              = Def{"", "reef_engine_proxy_stat", KindUntyped, "Proxy component registry stat, labeled by stat name."}
	BrokerStat             = Def{"", "reef_engine_broker_stat", KindUntyped, "Broker component registry stat, labeled by stat name."}
	BrokerCanceled         = Def{"broker_canceled", "reef_engine_broker_canceled_total", KindCounter, "Deliveries skipped because the subscription was canceled after the match (broker_dropped counts only queue overflow)."}
	Shards                 = Def{"shards", "reef_shards", KindGauge, "Shard count of the deployment."}
)

// Distributed deployment families.
var (
	DistributedPeers        = Def{"peers", "reef_distributed_peers", KindGauge, "Broker peers in the distributed deployment."}
	DistributedSubs         = Def{"subscriptions", "reef_distributed_subscriptions", KindGauge, "Subscriptions across distributed peers."}
	DistributedKnownFeeds   = Def{"known_feeds", "reef_distributed_known_feeds", KindGauge, "Feeds known across distributed peers."}
	DistributedApplied      = Def{"applied_recommendations", "reef_distributed_applied_recommendations", KindGauge, "Recommendations applied across distributed peers."}
	DistributedPendingRecos = PendingRecommendations // same key, shared family
)

// Delivery families (Stats()-backed from delivery.Totals).
var (
	DeliveryReliableSubs  = Def{"delivery_reliable_subs", "reef_delivery_reliable_subs", KindGauge, "Reliable (at-least-once) subscription queues."}
	DeliveryRetained      = Def{"delivery_retained", "reef_delivery_retained", KindGauge, "Events retained awaiting ack across reliable queues."}
	DeliveryAcked         = Def{"delivery_acked", "reef_delivery_acked_total", KindCounter, "Events acknowledged and released."}
	DeliveryRedeliveries  = Def{"delivery_redeliveries", "reef_delivery_redeliveries_total", KindCounter, "Events handed out again after a nack or lease expiry."}
	DeliveryDeadLetters   = Def{"delivery_deadletters", "reef_delivery_deadletters_total", KindCounter, "Events moved to the dead-letter queue."}
	DeliveryLeaseExpiries = Def{"delivery_lease_expiries", "reef_delivery_lease_expiries_total", KindCounter, "Delivery leases that expired before an ack."}
)

// Cluster router families (registry-backed counters, projected into
// Stats() under Def.Key for the legacy merge path).
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
	ReplicationLogLen         = Def{"replication_log_len", "reef_replication_log_len", KindGauge, "Records retained in the in-memory replication log."}
	ReplicationPeers          = Def{"replication_peers", "reef_replication_peers", KindGauge, "Outbound replication peers."}
	ReplicationPending        = Def{"replication_pending", "reef_replication_pending", KindGauge, "Records not yet shipped to the slowest peer."}
	ReplicationResyncs        = Def{"replication_resyncs", "reef_replication_resyncs_total", KindCounter, "Full snapshot resyncs triggered by watermark gaps."}
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
	StreamBatchEvents = Def{"", "reef_stream_batch_events", KindHistogram, "Coalesced events applied per stream batch."}
	StreamConsumers   = Def{"", "reef_stream_consumers", KindGauge, "Consumers attached to the stream consume plane."}
	StreamDelivered   = Def{"", "reef_stream_delivered_total", KindCounter, "Events pushed to stream consumers."}
	StreamAckSeconds  = Def{"", "reef_stream_ack_seconds", KindHistogram, "Client-observed publish ack round-trip latency in seconds."}
)

// Trace families (registry-only).
var (
	TraceSpans = Def{"", "reef_trace_spans_total", KindCounter, "Spans recorded into the trace ring (including evicted)."}
)

// UnknownStat is the fallback family for Stats() keys with no table
// entry; the raw key rides in a label so nothing is silently dropped.
var UnknownStat = Def{"", "reef_stat", KindUntyped, "Stats() key with no table entry, labeled by raw key."}

// Defs lists every Def above; exposition and the naming check walk it.
var Defs = []Def{
	ClicksStored, DistinctServers, FeedsDiscovered, UploadBytes, ProxyFeeds,
	PendingRecommendations, UsersWithFrontends, ProxyStat, BrokerStat, BrokerCanceled, Shards,
	DistributedPeers, DistributedSubs, DistributedKnownFeeds, DistributedApplied,
	DeliveryReliableSubs, DeliveryRetained, DeliveryAcked, DeliveryRedeliveries,
	DeliveryDeadLetters, DeliveryLeaseExpiries,
	ClusterNodes, ClusterNodesUp, ClusterNodesDraining, ClusterNodesDown,
	ClusterForwardErrors, ClusterPublishSkips, ClusterPublishPartial,
	ReplicationReplicas, ReplicationLogLen, ReplicationPeers, ReplicationPending,
	ReplicationResyncs, ReplicationLagP99Micros, ReplicationAppliedRecords,
	HTTPRequests, HTTPRequestSeconds, HTTPInFlight,
	StreamConns, StreamFramesIn, StreamFramesOut, StreamEventsIn,
	StreamBatchEvents, StreamConsumers, StreamDelivered, StreamAckSeconds,
	TraceSpans, UnknownStat,
}

// byKey indexes the Stats()-backed defs.
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

// ResolveStatKey maps a raw Stats() map key to its Prometheus family
// and labels. It peels, in order: a "shard<i>_" or "node_<id>_" prefix
// (becoming a {shard=...} / {node=...} label), a ".count"/".mean"/
// ".max" histogram-projection suffix (appended to the family name as
// "_count"/"_mean"/"_max"), and dynamic "proxy_"/"broker_" component
// keys (the component stat name becoming a {stat=...} label). Keys with
// no table entry resolve to UnknownStat with the raw key as a label.
func ResolveStatKey(raw string) (name string, kind Kind, help string, labels []Label) {
	key := raw

	// Per-shard and per-node breakdown prefixes become labels.
	if rest, ok := strings.CutPrefix(key, "shard"); ok {
		if i := strings.IndexByte(rest, '_'); i > 0 {
			if _, err := strconv.Atoi(rest[:i]); err == nil {
				labels = append(labels, Label{"shard", rest[:i]})
				key = rest[i+1:]
			}
		}
	} else if rest, ok := strings.CutPrefix(key, "node_"); ok {
		// Node IDs may contain underscores, so find the longest known
		// base key ending the string; the rest is the node ID.
		if id, base, ok := splitNodeKey(rest); ok {
			labels = append(labels, Label{"node", id})
			key = base
		}
	}

	suffix := ""
	for _, s := range []string{".count", ".mean", ".max"} {
		if base, ok := strings.CutSuffix(key, s); ok {
			key, suffix = base, "_"+s[1:]
			break
		}
	}

	var d Def
	if hit, ok := byKey[key]; ok {
		d = hit
	} else if stat, ok := strings.CutPrefix(key, "proxy_"); ok {
		d = ProxyStat
		labels = append(labels, Label{"stat", stat})
	} else if stat, ok := strings.CutPrefix(key, "broker_"); ok {
		d = BrokerStat
		labels = append(labels, Label{"stat", stat})
	} else {
		d = UnknownStat
		labels = append(labels, Label{"key", raw})
		return d.Name, d.Kind, d.Help, labels
	}

	name, kind, help = d.Name, d.Kind, d.Help
	if suffix != "" {
		// A ".mean"/".max"/".count" projection of a remote histogram is
		// not the histogram itself; expose it as an untyped suffix
		// series so the TYPE line stays honest.
		name += suffix
		kind = KindUntyped
		help = d.Help + " (" + suffix[1:] + " projection)"
	}
	return name, kind, help, labels
}

// splitNodeKey splits "<id>_<known base key>" taking the longest known
// base key as the tail.
func splitNodeKey(rest string) (id, base string, ok bool) {
	best := -1
	for k := range byKey {
		if strings.HasSuffix(rest, "_"+k) && len(k) > best {
			best = len(k)
			id, base = rest[:len(rest)-len(k)-1], k
		}
	}
	return id, base, best >= 0
}
