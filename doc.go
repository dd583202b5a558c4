// Package reef is a reproduction of "Automatic Subscriptions In
// Publish-Subscribe Systems" (Brenna, Gurrin, Johansen, Zagorodnov,
// ICDCS Workshops 2006), grown toward a production-scale system.
//
// Reef automates subscription management in publish-subscribe systems by
// watching user attention (browsing clicks), parsing it into tokens that
// form valid name-value pairs for a pub-sub schema, and letting a
// recommendation service place and remove subscriptions on the user's
// behalf.
//
// This package is the public API: the Deployment interface with its two
// implementations — NewCentralized (the paper's Figure 1 server) and
// NewDistributed (the Figure 2 WAIF-peer pipeline) — plus functional
// options and the sentinel error set. WithShards(n) partitions a
// deployment's users across n in-memory engine shards behind a stable
// hash router: user-addressed calls touch one shard and publishes fan
// out to all shards concurrently (the Sharder interface reports the
// count). Deployments opened with WithDataDir persist their state
// through a write-ahead log and compacting snapshots (internal/durable)
// — one journal per node, shared by every shard — and recover it on
// reopen, at whatever shard count the node opens with; the Persister
// interface exposes the storage surface. The
// reefhttp subpackage serves any Deployment over a versioned REST
// surface, and reefclient is the Go SDK for it (itself a Deployment).
// REST is the control plane; the high-volume verbs — publish, clicks
// and reliable consume — have a dedicated binary data plane in reefstream,
// a persistent-connection, length-prefixed streaming protocol (framed
// by the internal/durable codec, pipelined by callers, batch-coalesced
// by the server; consumers attach a subscription and are pushed leased
// events under a credit window the moment they are retained) that a
// reefclient can adopt via WithTransport and every reefd serves as an
// HTTP/1.1 upgrade on its one REST listener.
// The reefcluster subpackage scales out: a Cluster is a Deployment
// routing over N reefd nodes — users placed by a stable hash,
// publishes fanned out to every live node, membership tracked by a
// health prober (internal/membership), and node failures surfaced as
// typed ErrNodeDown while other users stay served. With replication
// configured (internal/replication; -replicas on reefd) each user's
// primary ships its journal asynchronously to k warm replicas, and
// the router promotes the first live replica when the primary dies,
// so failover is a routing decision instead of an outage; the old
// primary rejoins as a replica and resyncs from its peers' streams.
//
// Subscriptions choose a delivery guarantee at Subscribe time:
// BestEffort (the default — shown in the user's bounded sidebar, which
// evicts its oldest item under pressure) or AtLeastOnce via
// WithGuarantee, which retains every matched event until the consumer
// acks past it. The reliable tier is
// the optional ReliableDeliverer interface — FetchEvents leases a
// contiguous, sequence-ordered batch, Ack advances a durable
// cumulative cursor (journaled alongside the rest of the WAL, so it
// survives crashes), unacked events redeliver with jittered backoff
// after the ack timeout, and events exhausting WithMaxAttempts land in
// a dead-letter queue (DeadLetters / DrainDeadLetters). The
// centralized deployment, client SDK and cluster router implement it;
// the distributed pipeline stays best-effort, as in the paper.
// StreamDeliverer extends it with an append-notify hook, which feeds
// both the reefstream push path and the REST fetch's bounded wait=
// long-poll, so consumers on either plane block instead of polling.
//
// Every surface is observable end to end: GET /v1/metrics serves a
// dependency-free Prometheus exposition (internal/metrics: every
// deployment value is a sample of one Def, labelled at source, rendered
// as a uniformly named reef_<subsystem>_<name> family and flattened by
// the same Def into the Stats() keys), requests carry a 16-byte trace ID
// across nodes (X-Reef-Trace on REST and replication, an optional
// trailer on stream frames) into per-node span rings dumped by GET
// /v1/admin/trace, and reefd logs through log/slog with pprof on a
// separate listener. See DESIGN.md for the interface, route,
// error-model, sharding, cluster, durability, delivery-semantics and
// observability reference.
//
// The components live under internal/: the pub-sub substrate (eventalg,
// pubsub), the IR toolkit (ir), the Web and workload simulation (websim,
// workload, topics, video), the Reef components (attention, crawler,
// store, recommend, frontend, waif, cluster), and the two deployments
// (core). Binaries live under cmd/ and runnable examples under
// examples/.
package reef
