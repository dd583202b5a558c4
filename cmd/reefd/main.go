// Command reefd runs the centralized Reef deployment behind the versioned
// REST surface: the production successor of the paper's "LAMP" prototype
// (§3). It mounts the /v1 API, hosts the synthetic web on the same
// listener (under /web/), and runs the crawl/analysis pipeline and WAIF
// feed poller periodically.
//
//	reefd -addr :7070 -pipeline 30s -seed 2006
//	reefd -data-dir /var/lib/reef -sync always    # durable deployment
//	reefd -data-dir /var/lib/reef -shards 8       # 8 engine shards
//
// With -data-dir the deployment journals every state change to a
// write-ahead log and recovers it on startup; -sync picks the WAL
// durability policy (async, always, never) and -snapshot-every the
// compaction cadence in records. -shards partitions users across N
// in-memory engine shards (default 1). All shards share the one journal
// at the data directory's root, so a directory reopens at any -shards;
// one an older release wrote as per-shard journals (shards.json plus
// shard-<i>/) is imported once, on first open.
//
// # Cluster membership
//
// A reefd is cluster-ready out of the box. -node-id names the node; the
// ID is stamped into /v1/healthz and /v1/readyz so a cluster prober can
// verify it reached the process it expects. The listener comes up
// BEFORE recovery replay: /v1/readyz answers 503 "starting" while the
// WAL replays (and every other /v1 route answers 503), flipping to 200
// only when the deployment is live — a restarting node is visible, just
// not routable. On SIGINT/SIGTERM the order is the reverse: readyz
// flips to 503 "draining" first, -drain-grace passes so probers notice,
// then the HTTP listener drains in-flight requests, the stream
// connections drain, the pipeline ticker stops, and the deployment
// closes so the final WAL segment is synced instead of torn.
//
// With -cluster-nodes, reefd instead runs as a cluster ROUTER: no local
// deployment, no pipeline — the /v1 surface is served by a
// reefcluster.Cluster that forwards user-addressed calls to the owning
// node and fans publishes out to every live node:
//
//	reefd -addr :7000 -cluster-nodes n1=http://10.0.0.1:7070,n2=http://10.0.0.2:7070
//
// # Streaming data plane
//
// REST is the control plane; the hot paths — publish, the reliable
// consume loop (server-pushed fetches with pipelined acks), and a
// router's click forwards — ride a persistent, length-prefixed binary
// stream (package reefstream) that every reefd serves on -addr as an
// HTTP/1.1 upgrade, the same upgrade a peer's replication link opens
// with a hello declaring that role: a node has one address, and clients
// dial the stream from its base URL. A router carries each node's hot
// paths over one stream to the node's http:// base URL (an https://
// node stays on REST), with fan-out frames encoded once and shared
// across nodes. A node whose stream connection fails is demoted as a
// node whose REST call fails is, and the call is not repeated over
// REST: on one port the stream and REST live and die together. A node
// older than the stream route answers every call with its unsupported
// verdict, so upgrade nodes before routers. On shutdown the stream drains after the HTTP listener:
// every fully-read frame is applied and acked before the deployment
// closes — no event is half-applied.
//
// # Replication
//
// With -replicas k (node mode), every user's WAL records ship
// asynchronously to the k nodes after the user's primary slot, so a
// router configured with the same k can fail the user over to a warm
// replica when the primary dies. The node needs its identity and the
// shared seed list:
//
//	reefd -data-dir /var/lib/reef -node-id n1 -replicas 1 \
//	      -peers n1=http://10.0.0.1:7070,n2=http://10.0.0.2:7070
//
// Give the router the same -replicas so its placement walks the same
// replica sets. Inbound stream positions are journaled in the node's
// WAL beside the records they cover, and GET /v1/admin/replication
// reports both directions' stream positions, lag and backlog.
//
// # Observability
//
// Every reefd (node or router) serves GET /v1/metrics, a dependency-free
// Prometheus text exposition covering the REST middleware, the stream
// data plane, delivery queues, replication, and (router mode) the
// cluster's routing health: one shared registry per process plus the
// deployment's labelled samples. Requests
// are traced: a 16-byte ID minted at ingress (or taken from the
// X-Reef-Trace header) is echoed on the response, forwarded on fan-out
// and replication calls, carried on stream publish frames, and recorded
// into a bounded per-node span ring dumped by GET /v1/admin/trace
// (?trace=HEX&limit=N). Logs go through log/slog — -log-level picks the
// threshold (debug, info, warn, error), -log-format text or json — and
// the startup line records the build version and effective config.
// -pprof-addr serves net/http/pprof on a separate listener (keep it off
// public interfaces):
//
//	reefd -addr :7070 -log-format json -log-level debug -pprof-addr localhost:6060
//
// Endpoints (see package reefhttp for the full wire contract):
//
//	POST   /v1/clicks                          ingest a click batch
//	POST   /v1/events                          publish one event
//	GET    /v1/users/{user}/subscriptions      list subscriptions
//	PUT    /v1/users/{user}/subscriptions      subscribe to a feed
//	DELETE /v1/users/{user}/subscriptions      unsubscribe (?feed=URL)
//	GET    /v1/subscriptions/{id}/events       lease retained events (?user=U&max=N)
//	POST   /v1/subscriptions/{id}/ack          ack/nack a delivery cursor
//	GET    /v1/recommendations?user=U          pending recommendations
//	POST   /v1/recommendations/{id}/accept     accept one
//	POST   /v1/recommendations/{id}/reject     reject one
//	GET    /v1/stats                           counters
//	GET    /v1/metrics                         Prometheus text exposition
//	GET    /v1/healthz                         liveness + shape + node ID + version/uptime
//	GET    /v1/readyz                          readiness (starting/ready/draining)
//	GET    /v1/admin/trace                     span ring dump (?trace=HEX&limit=N)
//	GET    /v1/admin/storage                   persistence backend state
//	GET    /v1/admin/replication               replication stream positions + lag
//	POST   /v1/stream                          binary data plane or a peer's replication link, upgraded
//	POST   /v1/admin/snapshot                  force a compacting snapshot
//	GET    /v1/admin/deadletter                inspect dead-letter queues (?user=U)
//	POST   /v1/admin/deadletter                drain dead-letter queues
//	GET    /web/<host>/<path>                  the synthetic web (node mode)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"reef"
	"reef/internal/metrics"
	"reef/internal/replication"
	"reef/internal/topics"
	"reef/internal/trace"
	"reef/internal/websim"
	"reef/reefcluster"
	"reef/reefhttp"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	seed := flag.Int64("seed", 2006, "synthetic web seed")
	scale := flag.Float64("scale", 0.25, "synthetic web scale (1.0 = paper scale)")
	pipelineEvery := flag.Duration("pipeline", 30*time.Second, "pipeline interval")
	pollEvery := flag.Duration("poll", 10*time.Minute, "WAIF feed poll interval")
	dataDir := flag.String("data-dir", "", "data directory for WAL + snapshot persistence (empty = in-memory)")
	syncMode := flag.String("sync", "async", "WAL sync policy: async, always, never")
	snapshotEvery := flag.Int("snapshot-every", 0, "snapshot compaction after N WAL records (0 = default 4096, <0 disables)")
	shards := flag.Int("shards", 1, "number of in-memory engine shards users partition across (any count opens any data directory)")
	ackTimeout := flag.Duration("delivery-ack-timeout", 0, "default lease before an unacked reliable delivery is retried (0 = library default 30s)")
	maxAttempts := flag.Int("delivery-max-attempts", 0, "default delivery attempts before an event dead-letters (0 = library default 5)")
	nodeID := flag.String("node-id", "", "this node's cluster identity, stamped into /v1/healthz and /v1/readyz")
	clusterNodes := flag.String("cluster-nodes", "", "run as a cluster router over these nodes (comma-separated id=url pairs) instead of a local deployment")
	replicas := flag.Int("replicas", 0, "replicas per user: node mode ships the WAL to each user's k replica nodes (needs -data-dir, -node-id and -peers); router mode fails user calls over to the first up replica")
	peers := flag.String("peers", "", "the cluster seed list this node replicates over (comma-separated id=url pairs, same order on every node; must include -node-id)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "how long /v1/readyz advertises draining before the listener closes")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofAddr := flag.String("pprof-addr", "", "listen address for the net/http/pprof debug server (empty disables it; keep it off public interfaces)")
	flag.Parse()

	logger, err := buildLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *nodeID != "" {
		logger = logger.With("node", *nodeID)
	}
	slog.SetDefault(logger)
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr, logger); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *clusterNodes != "" {
		err = runRouter(logger, *addr, *clusterNodes, *nodeID, *drainGrace, *dataDir, *shards, *replicas, *peers)
	} else {
		err = run(logger, *addr, *seed, *scale, *pipelineEvery, *pollEvery, *dataDir, *syncMode, *snapshotEvery, *shards, *nodeID, *drainGrace, *ackTimeout, *maxAttempts, *replicas, *peers)
	}
	if err != nil {
		logger.Error("reefd exiting", "err", err)
		os.Exit(1)
	}
}

// buildLogger assembles the process logger from the -log-level and
// -log-format flags.
func buildLogger(w *os.File, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("reefd: bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("reefd: bad -log-format %q (want text or json)", format)
	}
}

// startPprof serves net/http/pprof on its own listener with an explicit
// mux — the profiles never mount on the API listener, so exposing the
// API does not expose heap dumps. Errors binding the address fail
// startup; errors after that are logged, not fatal (losing the debug
// listener must not take the data path down).
func startPprof(addr string, logger *slog.Logger) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("reefd: pprof listener: %w", err)
	}
	logger.Info("pprof listening", "addr", ln.Addr().String())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logger.Warn("pprof server stopped", "err", err)
		}
	}()
	return nil
}

// syncPolicy parses the -sync flag.
func syncPolicy(mode string) (reef.SyncPolicy, error) {
	switch mode {
	case "async":
		return reef.SyncAsync, nil
	case "always":
		return reef.SyncAlways, nil
	case "never":
		return reef.SyncNever, nil
	default:
		return 0, fmt.Errorf("reefd: unknown -sync mode %q (want async, always or never)", mode)
	}
}

// parseClusterNodes parses a node list ("id=url,id=url"), refusing
// duplicate IDs and duplicate URLs outright — a copy-pasted entry would
// otherwise double-route a slot or probe one process twice under two
// names. flagName labels errors (-cluster-nodes or -peers).
func parseClusterNodes(flagName, spec string) ([]reefcluster.Node, error) {
	var nodes []reefcluster.Node
	seenID := make(map[string]bool)
	seenURL := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("reefd: bad %s entry %q (want id=url)", flagName, part)
		}
		if seenID[id] {
			return nil, fmt.Errorf("reefd: duplicate node id %q in %s", id, flagName)
		}
		if seenURL[u] {
			return nil, fmt.Errorf("reefd: duplicate node url %q in %s", u, flagName)
		}
		seenID[id], seenURL[u] = true, true
		nodes = append(nodes, reefcluster.Node{ID: id, BaseURL: u})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("reefd: %s has no entries", flagName)
	}
	return nodes, nil
}

// parsePeers parses -peers into the replication manager's node list,
// checking that self appears in it.
func parsePeers(spec, self string) ([]replication.Node, error) {
	nodes, err := parseClusterNodes("-peers", spec)
	if err != nil {
		return nil, err
	}
	out := make([]replication.Node, len(nodes))
	found := false
	for i, n := range nodes {
		out[i] = replication.Node{ID: n.ID, BaseURL: n.BaseURL}
		if n.ID == self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("reefd: -node-id %q is not in -peers; a replicating node must appear in its own seed list", self)
	}
	return out, nil
}

// swapHandler atomically replaces its delegate: the listener comes up
// serving "starting" 503s, then the real handler swaps in once recovery
// replay finishes.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	(*s.h.Load()).ServeHTTP(rw, req)
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

// startingHandler answers every /v1 route with the unavailable envelope
// while recovery replay runs (readyz has its own dedicated route).
func startingHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = rw.Write([]byte(`{"error":{"code":"unavailable","message":"starting: recovery replay in progress"}}` + "\n"))
	})
}

// serveUntilSignal waits on an already-serving server until
// SIGINT/SIGTERM, then drains in cluster-polite order: readyz
// advertises draining, the grace passes so probers stop routing here,
// the listener drains in-flight requests, the stream connections h took
// over drain while the deployment is still open (no event is left
// half-applied), and finally shutdown() releases whatever the mode
// holds. The caller starts srv.Serve itself (feeding serveErr) so the
// accept loop can predate recovery replay.
func serveUntilSignal(logger *slog.Logger, srv *http.Server, serveErr <-chan error, ready *reefhttp.Readiness, drainGrace time.Duration, h *reefhttp.Handler, shutdown func() error) error {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	var serveFailed error
	select {
	case err := <-serveErr:
		serveFailed = fmt.Errorf("reefd: %w", err)
	case <-ctx.Done():
		logger.Info("signal received, draining (readyz -> 503)", "grace", drainGrace)
		ready.SetDraining()
		time.Sleep(drainGrace)
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shutCancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("serve", "err", err)
		}
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer drainCancel()
	if err := h.Shutdown(drainCtx); err != nil {
		logger.Warn("stream drain", "err", err)
	}
	if err := shutdown(); serveFailed != nil || err != nil {
		return errors.Join(serveFailed, err)
	}
	logger.Info("shut down cleanly")
	return nil
}

func run(logger *slog.Logger, addr string, seed int64, scale float64, pipelineEvery, pollEvery time.Duration, dataDir, syncMode string, snapshotEvery, shards int, nodeID string, drainGrace time.Duration, ackTimeout time.Duration, maxAttempts int, replicas int, peersSpec string) error {
	// Uptime counts from here, so a recovered node's healthz includes the
	// WAL replay, as its readyz (built before recovery) already does.
	start := time.Now()
	logger.Info("reefd starting",
		"version", reefhttp.Version(), "addr", addr,
		"data_dir", dataDir, "sync", syncMode, "shards", shards,
		"replicas", replicas,
		"scale", scale, "pipeline_every", pipelineEvery)
	// One registry and one span ring per node: the REST handler, the
	// stream data plane and the replication sender all record into them,
	// so /v1/metrics and /v1/admin/trace each cover the whole node.
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(0)
	// Replication flags fail fast, before anything binds: shipping the
	// WAL needs a WAL, an identity, and a seed list to place users over.
	var replNodes []replication.Node
	if replicas > 0 {
		if dataDir == "" {
			return errors.New("reefd: -replicas ships the WAL, so it requires -data-dir")
		}
		if nodeID == "" {
			return errors.New("reefd: -replicas requires -node-id (the identity peers ship to and from)")
		}
		if peersSpec == "" {
			return errors.New("reefd: -replicas requires -peers (the cluster seed list, identical on every node)")
		}
		var err error
		if replNodes, err = parsePeers(peersSpec, nodeID); err != nil {
			return err
		}
	} else if peersSpec != "" {
		return errors.New("reefd: -peers without -replicas does nothing; set -replicas k or drop -peers")
	}

	model := topics.NewModel(seed, 16, 50, 80)
	wcfg := websim.DefaultConfig(seed, time.Now().UTC())
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * scale)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * scale)
	web := websim.Generate(wcfg, model)

	opts := []reef.Option{
		reef.WithFetcher(web),
		reef.WithPollInterval(pollEvery),
	}
	if ackTimeout < 0 || maxAttempts < 0 {
		return fmt.Errorf("reefd: -delivery-ack-timeout and -delivery-max-attempts must not be negative")
	}
	if ackTimeout > 0 || maxAttempts > 0 {
		opts = append(opts, reef.WithDeliveryDefaults(ackTimeout, maxAttempts))
	}
	if shards < 1 {
		return fmt.Errorf("reefd: -shards %d is invalid (want a positive count)", shards)
	}
	opts = append(opts, reef.WithShards(shards))
	if dataDir != "" {
		sp, err := syncPolicy(syncMode)
		if err != nil {
			return err
		}
		opts = append(opts,
			reef.WithDataDir(dataDir),
			reef.WithSyncPolicy(sp),
			reef.WithSnapshotEvery(snapshotEvery),
		)
	}

	// The server comes up BEFORE recovery so a restarting node answers
	// probes — readyz "starting", everything else a 503 envelope —
	// instead of refusing connections or parking them in the accept
	// backlog while the WAL replays.
	ready := reefhttp.NewReadiness()
	api := &swapHandler{}
	api.set(startingHandler())
	mux := http.NewServeMux()
	mux.Handle("/v1/", api)
	mux.Handle("/v1/readyz", reefhttp.ReadyzHandler(ready, nodeID))
	mux.Handle("/web/", http.StripPrefix("/web", &websim.Handler{Web: web}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("reefd: %w", err)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if dataDir != "" {
		logger.Info("listening, recovering WAL", "addr", addr, "data_dir", dataDir)
	}

	dep, err := reef.NewCentralized(opts...)
	if err != nil {
		_ = srv.Close()
		return fmt.Errorf("reefd: %w", err)
	}
	if dataDir != "" {
		info, err := dep.StorageInfo(context.Background())
		if err != nil {
			_ = srv.Close()
			_ = dep.Close()
			return fmt.Errorf("reefd: %w", err)
		}
		logger.Info("durable storage recovered",
			"dir", info.Dir, "sync", info.Sync, "shards", dep.ShardCount(),
			"generation", info.Generation, "recovered_records", info.RecoveredRecords,
			"torn_tail", info.TornTail)
	}
	handlerOpts := []reefhttp.HandlerOption{
		reefhttp.WithReadiness(ready), reefhttp.WithNodeID(nodeID),
		reefhttp.WithMetrics(reg), reefhttp.WithTrace(rec),
		reefhttp.WithStartTime(start),
	}
	var mgr *replication.Manager
	if replicas > 0 {
		// The tap is set BEFORE the handler swaps in: every record the
		// API writes from the first request on is offered for shipping.
		// Inbound positions are journaled in the deployment's own WAL, so
		// a restarted replica resumes its streams where its log ends;
		// Dir is read only to import the positions file older releases
		// kept there.
		mgr, err = replication.New(replication.Options{
			Self:     nodeID,
			Nodes:    replNodes,
			Replicas: replicas,
			Applier:  dep,
			Dir:      filepath.Join(dataDir, "replication"),
			Logger:   logger,
			Trace:    rec,
		})
		if err != nil {
			_ = srv.Close()
			_ = dep.Close()
			return fmt.Errorf("reefd: %w", err)
		}
		dep.SetReplicationTap(mgr.Offer)
		handlerOpts = append(handlerOpts, reefhttp.WithReplication(mgr))
		logger.Info("replication shipping", "peers", len(replNodes)-1, "replicas", replicas)
	}
	// The handler, and with it the stream route, swaps in AFTER recovery
	// (frames must land in a live deployment) and before readyz flips: a
	// router that sees ready may open its stream immediately.
	handler := reefhttp.NewHandler(dep, slog.NewLogLogger(logger.Handler(), slog.LevelError), handlerOpts...)
	api.set(handler)
	ready.SetReady()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(pipelineEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				now := time.Now().UTC()
				web.AdvanceTo(now)
				stats := dep.RunPipeline(now)
				polled, published := dep.PollFeeds(context.Background(), now)
				if stats.Crawled > 0 || stats.Recommendations > 0 || published > 0 {
					logger.Info("pipeline round",
						"crawled", stats.Crawled, "feeds", stats.FeedsDiscovered,
						"recommendations", stats.Recommendations, "errors", stats.CrawlErrors,
						"polled", polled, "pushed", published)
				}
			}
		}
	}()
	logger.Info("reefd ready",
		"addr", addr, "scale", scale, "shards", dep.ShardCount(),
		"pipeline_every", pipelineEvery)
	shutdown := func() error {
		close(stop)
		<-done
		if mgr != nil {
			// Stop shipping before the journal closes under the
			// senders; the unshipped tail stays in the local WAL.
			mgr.Close()
		}
		if err := dep.Close(); err != nil {
			return fmt.Errorf("reefd: closing deployment: %w", err)
		}
		return nil
	}
	return serveUntilSignal(logger, srv, serveErr, ready, drainGrace, handler, shutdown)
}

// runRouter serves the /v1 surface over a cluster of reefd nodes: user
// calls forward to their owning node, publishes fan out to every live
// node. The router holds no state of its own, so there is nothing to
// recover — it is ready as soon as the first probe round finishes.
func runRouter(logger *slog.Logger, addr, spec, nodeID string, drainGrace time.Duration, dataDir string, shards, replicas int, peersSpec string) error {
	start := time.Now()
	if dataDir != "" {
		return errors.New("reefd: -data-dir is a node flag; a cluster router holds no state (drop it or drop -cluster-nodes)")
	}
	if shards != 1 {
		return errors.New("reefd: -shards is a node flag; shard the nodes, not the router")
	}
	if peersSpec != "" {
		return errors.New("reefd: -peers is a node flag; the router's node list is -cluster-nodes")
	}
	nodes, err := parseClusterNodes("-cluster-nodes", spec)
	if err != nil {
		return err
	}
	// Every node serves its stream on its REST listener; the stream
	// client upgrades plain HTTP/1.1 only, so an https:// node (behind a
	// TLS proxy) stays on REST.
	for i := range nodes {
		if strings.HasPrefix(nodes[i].BaseURL, "http://") {
			nodes[i].StreamAddr = nodes[i].BaseURL
		}
	}
	logger.Info("reefd router starting",
		"version", reefhttp.Version(), "addr", addr,
		"nodes", len(nodes), "replicas", replicas)
	// The router shares one registry and span ring between its REST
	// surface and the cluster's stream clients, so /v1/metrics on the
	// router reports publish ack round trips beside the cluster's own
	// forwarding and fan-out samples.
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(0)
	// The router's k must match the nodes' -replicas: it decides which
	// nodes a user's calls may fail over to.
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes: nodes, Replicas: replicas,
		Metrics: reg, Logger: logger,
	})
	if err != nil {
		return fmt.Errorf("reefd: %w", err)
	}
	for _, s := range cl.Status() {
		logger.Info("cluster node probed",
			"peer", s.Node.ID, "url", s.Node.BaseURL, "state", s.State)
	}

	ready := reefhttp.NewReadiness()
	ready.SetReady()
	handler := reefhttp.NewHandler(cl, slog.NewLogLogger(logger.Handler(), slog.LevelError),
		reefhttp.WithReadiness(ready), reefhttp.WithNodeID(nodeID),
		reefhttp.WithMetrics(reg), reefhttp.WithTrace(rec),
		reefhttp.WithStartTime(start))
	mux := http.NewServeMux()
	mux.Handle("/v1/", handler)
	mux.Handle("/v1/readyz", reefhttp.ReadyzHandler(ready, nodeID))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = cl.Close()
		return fmt.Errorf("reefd: %w", err)
	}
	logger.Info("reefd routing", "nodes", len(nodes), "addr", addr)
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	shutdown := func() error { _ = cl.Close(); return nil }
	return serveUntilSignal(logger, srv, serveErr, ready, drainGrace, handler, shutdown)
}
