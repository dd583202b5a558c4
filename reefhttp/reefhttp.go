// Package reefhttp exposes a reef.Deployment over a versioned REST
// surface — the successor of the prototype's 3-endpoint "LAMP" interface
// (paper §3). Every route lives under /v1/, every response carries
// Content-Type: application/json, wrong methods get 405 with an Allow
// header, and every error is a consistent JSON envelope:
//
//	{"error": {"code": "not_found", "message": "..."}}
//
// Routes:
//
//	POST   /v1/clicks                          ingest a click batch
//	POST   /v1/events                          publish one event
//	POST   /v1/events:batch                    publish an event batch
//	GET    /v1/users/{user}/subscriptions      list live subscriptions
//	PUT    /v1/users/{user}/subscriptions      place a feed subscription
//	DELETE /v1/users/{user}/subscriptions      remove one (?feed=URL)
//	GET    /v1/subscriptions/{id}/events       lease retained events (?user=U&max=N&wait=D long-poll)
//	POST   /v1/subscriptions/{id}/ack          ack/nack a delivery cursor
//	GET    /v1/admin/deadletter                inspect dead letters (?user=U&subscription=S)
//	POST   /v1/admin/deadletter                drain dead letters (body: {"user","subscription"})
//	GET    /v1/recommendations?user=U          list pending recommendations
//	POST   /v1/recommendations/{id}/accept     execute one   (body: {"user":U})
//	POST   /v1/recommendations/{id}/reject     discard one   (body: {"user":U})
//	GET    /v1/stats                           counters snapshot
//	GET    /v1/metrics                         Prometheus text exposition
//	GET    /v1/healthz                         liveness + shard count + backend
//	GET    /v1/readyz                          readiness (see Readiness)
//	GET    /v1/admin/trace                     span ring dump (?trace=HEX&limit=N)
//	GET    /v1/admin/storage                   persistence backend state
//	POST   /v1/admin/snapshot                  force a compacting snapshot
//	GET    /v1/admin/replication               replication stream status
//	POST   /v1/stream                          open a stream or replication link (Upgrade)
//
// The admin storage/snapshot endpoints require the deployment to
// implement reef.Persister; the events/ack/deadletter endpoints require
// reef.ReliableDeliverer; the replication endpoints require a manager
// mounted via WithReplication. Against a deployment lacking the surface
// they answer 501 with code "unsupported".
//
// /v1/stream answers 101, then its hellos name the node, and the
// client's picks the role: a stream client goes to a reefstream.Server
// over the handler's deployment, node ID, registry and span ring, a
// peer's replication link to the WithReplication manager.
//
// Liveness and readiness are distinct probes: /v1/healthz answers 200
// whenever the process serves at all, while /v1/readyz answers 200 only
// when the deployment should receive new work — 503 with status
// "starting" until WAL recovery replay completes, and 503 with status
// "draining" once a shutdown began. A cluster router routes on readyz,
// so a node stops receiving traffic before its listener disappears.
// Unlike every other route, readyz keeps the ReadyResponse body shape
// on 503 too (not the error envelope): the prober needs the status
// string to tell a draining node from a broken one.
package reefhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"reef"
	"reef/internal/metrics"
	"reef/internal/trace"
	"reef/internal/upgrade"
	"reef/reefstream"
)

// maxBodyBytes bounds JSON request bodies (the click batch is the
// largest); readBody refuses a longer one with 413.
const maxBodyBytes = 16 << 20

// Error codes carried in the envelope; the client SDK maps them back to
// the reef sentinel errors.
const (
	CodeInvalidArgument  = "invalid_argument"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnavailable      = "unavailable"
	CodeUnsupported      = "unsupported"
	CodeInternal         = "internal"
)

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code and human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Wire request/response shapes.
type (
	// ClicksRequest is the POST /v1/clicks body.
	ClicksRequest struct {
		Clicks []reef.Click `json:"clicks"`
	}
	// ClicksResponse acknowledges an ingested batch.
	ClicksResponse struct {
		Accepted int `json:"accepted"`
	}
	// EventResponse reports local deliveries of a published event.
	EventResponse struct {
		Delivered int `json:"delivered"`
	}
	// EventsBatchRequest is the POST /v1/events:batch body.
	EventsBatchRequest struct {
		Events []reef.Event `json:"events"`
	}
	// SubscriptionsResponse lists a user's live subscriptions.
	SubscriptionsResponse struct {
		Subscriptions []reef.Subscription `json:"subscriptions"`
	}
	// SubscribeRequest is the PUT subscriptions body. Delivery is
	// optional; omitting it places a best-effort subscription.
	SubscribeRequest struct {
		FeedURL  string          `json:"feed_url"`
		Delivery *DeliveryConfig `json:"delivery,omitempty"`
	}
	// DeliveryConfig selects a subscription's delivery tier on the wire.
	DeliveryConfig struct {
		// Guarantee is "best_effort" or "at_least_once".
		Guarantee string `json:"guarantee"`
		// AckTimeoutMS and MaxAttempts are at-least-once tuning; zero
		// keeps the deployment defaults.
		AckTimeoutMS int64 `json:"ack_timeout_ms,omitempty"`
		MaxAttempts  int   `json:"max_attempts,omitempty"`
	}
	// AckRequest is the POST /v1/subscriptions/{id}/ack body. Seq is the
	// cumulative cursor position; Nack asks for immediate redelivery
	// instead of advancing the cursor.
	AckRequest struct {
		User string `json:"user"`
		Seq  int64  `json:"seq"`
		Nack bool   `json:"nack,omitempty"`
	}
	// AckResponse acknowledges a cursor call.
	AckResponse struct {
		ID     string `json:"id"`
		Seq    int64  `json:"seq"`
		Action string `json:"action"` // "ack" or "nack"
	}
	// DeliveredResponse carries leased events from the fetch endpoint.
	DeliveredResponse struct {
		Events []reef.DeliveredEvent `json:"events"`
	}
	// DeadLetterResponse lists dead-lettered events (GET) or the drained
	// batch (POST).
	DeadLetterResponse struct {
		DeadLetters []reef.DeadLetter `json:"dead_letters"`
	}
	// DeadLetterDrainRequest is the POST /v1/admin/deadletter body. An
	// empty Subscription drains every reliable subscription of the user.
	DeadLetterDrainRequest struct {
		User         string `json:"user"`
		Subscription string `json:"subscription,omitempty"`
	}
	// RecommendationsResponse lists pending recommendations.
	RecommendationsResponse struct {
		Recommendations []reef.Recommendation `json:"recommendations"`
	}
	// DecisionRequest is the accept/reject body.
	DecisionRequest struct {
		User string `json:"user"`
	}
	// StatsResponse snapshots deployment counters.
	StatsResponse struct {
		Stats reef.Stats `json:"stats"`
	}
	// StorageResponse reports the persistence backend's state (admin
	// storage and snapshot endpoints).
	StorageResponse struct {
		Storage reef.StorageInfo `json:"storage"`
	}
	// HealthResponse is the GET /v1/healthz body: liveness plus the
	// deployment's shape — how many engine shards serve it and which
	// storage backend persists it ("memory" when nothing does). Node is
	// the server's cluster identity (reefd -node-id), empty standalone.
	// StreamAddr advertises a reefstream Listen server (WithStreamAddr).
	HealthResponse struct {
		Status     string `json:"status"`
		Shards     int    `json:"shards"`
		Backend    string `json:"backend"`
		Node       string `json:"node,omitempty"`
		StreamAddr string `json:"stream_addr,omitempty"`
		// Version identifies the serving build (module version plus VCS
		// revision when stamped); UptimeSeconds is time since the server
		// came up. Both also appear on readyz, so a prober can spot a
		// restarted or upgraded node across consecutive probes.
		Version       string  `json:"version,omitempty"`
		UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	}
	// ReadyResponse is the GET /v1/readyz body, served with this shape
	// at every status code. Status is "ready" (200), "starting" or
	// "draining" (both 503).
	ReadyResponse struct {
		Status        string  `json:"status"`
		Node          string  `json:"node,omitempty"`
		Version       string  `json:"version,omitempty"`
		UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	}
)

// Readiness state names carried in ReadyResponse.Status.
const (
	ReadyStarting = "starting"
	ReadyOK       = "ready"
	ReadyDraining = "draining"
)

// Readiness is the three-state gate behind /v1/readyz. It starts in
// "starting" (503): a recovering node answers probes — instead of
// refusing connections — without being routed to. SetReady flips it to
// 200 once recovery replay completes; SetDraining flips it back to 503
// when a shutdown begins, so a cluster prober stops routing to the node
// before the listener closes. Safe for concurrent use.
type Readiness struct {
	state atomic.Int32 // 0 starting, 1 ready, 2 draining
}

// NewReadiness returns a gate in the "starting" state.
func NewReadiness() *Readiness { return &Readiness{} }

// SetReady marks recovery complete: readyz answers 200.
func (r *Readiness) SetReady() { r.state.Store(1) }

// SetDraining marks a shutdown in progress: readyz answers 503 again.
func (r *Readiness) SetDraining() { r.state.Store(2) }

// State reports the current status string.
func (r *Readiness) State() string {
	switch r.state.Load() {
	case 1:
		return ReadyOK
	case 2:
		return ReadyDraining
	default:
		return ReadyStarting
	}
}

// ReadyzHandler serves GET /v1/readyz from a gate alone, for servers
// that must answer readiness probes before their deployment exists:
// reefd starts listening before WAL recovery replay completes, so a
// restarting node answers "starting" (503) instead of refusing
// connections. Mounted on a mux at the exact path, it takes precedence
// over the full Handler's /v1/ prefix route.
func ReadyzHandler(r *Readiness, nodeID string) http.Handler {
	h := &Handler{ready: r, nodeID: nodeID, start: time.Now()}
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		h.route(rw, req, "GET", h.handleReadyz)
	})
}

// Handler serves the REST surface over any reef.Deployment.
type Handler struct {
	dep        reef.Deployment
	log        *log.Logger
	ready      *Readiness
	nodeID     string
	streamAddr string
	repl       Replicator
	stream     *reefstream.Server
	metrics    *metrics.Registry
	tracer     *trace.Recorder
	start      time.Time

	// The middleware's instruments, resolved once (see routeMeters).
	inFlight *metrics.Gauge
	routes   [numRoutes]routeMeters
}

var _ http.Handler = (*Handler)(nil)

// HandlerOption configures optional handler behavior.
type HandlerOption func(*Handler)

// WithReadiness wires a readiness gate behind /v1/readyz. Without one,
// readyz mirrors liveness: 200 whenever the deployment serves.
func WithReadiness(r *Readiness) HandlerOption {
	return func(h *Handler) { h.ready = r }
}

// WithNodeID stamps the server's cluster identity into the healthz and
// readyz bodies, so a prober can detect a probe answered by the wrong
// process on a reused address.
func WithNodeID(id string) HandlerOption {
	return func(h *Handler) { h.nodeID = id }
}

// WithStreamAddr advertises a separate reefstream Listen server's
// address in the healthz body.
func WithStreamAddr(addr string) HandlerOption {
	return func(h *Handler) { h.streamAddr = addr }
}

// NewHandler mounts the /v1 surface over the deployment. A nil logger
// discards encode-failure diagnostics. Every handler carries a metrics
// registry (per-route instrumentation, served at /v1/metrics) and a
// trace span ring (served at /v1/admin/trace); WithMetrics/WithTrace
// substitute shared instances, which the handler's stream server shares.
func NewHandler(dep reef.Deployment, logger *log.Logger, opts ...HandlerOption) *Handler {
	h := &Handler{dep: dep, log: logger, start: time.Now()}
	for _, o := range opts {
		o(h)
	}
	if h.metrics == nil {
		h.metrics = metrics.NewRegistry()
	}
	if h.tracer == nil {
		h.tracer = trace.NewRecorder(0)
	}
	if h.nodeID == "" && h.repl != nil {
		h.nodeID = h.repl.Status().Self
	}
	h.inFlight = h.metrics.Gauge(metrics.HTTPInFlight.Name)
	h.stream = reefstream.NewServer(nil, dep, reefstream.WithNode(h.nodeID),
		reefstream.WithMetrics(h.metrics), reefstream.WithTraceRecorder(h.tracer))
	return h
}

// Shutdown drains the stream connections the handler took over (see
// reefstream.Server.Shutdown), which http.Server.Shutdown does not see.
func (h *Handler) Shutdown(ctx context.Context) error { return h.stream.Shutdown(ctx) }

// serveStream answers the upgrade route (RFC 9110 §7.8): 426 naming
// the protocol to a request for another, else 101 on the hijacked
// connection, which then carries no server deadlines (each role bounds
// its own waits). The client's hello picks the role: a stream client's
// connection goes to the stream server, a replication link's to the
// manager, a link refused when there is none.
func (h *Handler) serveStream(rw http.ResponseWriter, req *http.Request) {
	if !strings.EqualFold(req.Header.Get("Upgrade"), upgrade.Protocol) {
		rw.Header().Set("Upgrade", upgrade.Protocol)
		rw.Header().Set("Connection", "Upgrade")
		h.writeError(rw, http.StatusUpgradeRequired, CodeInvalidArgument, "this route only upgrades: send Upgrade: "+upgrade.Protocol)
		return
	}
	conn, brw, err := http.NewResponseController(rw).Hijack()
	if err != nil {
		h.writeError(rw, http.StatusInternalServerError, CodeInternal, "upgrading to "+upgrade.Protocol+": "+err.Error())
		return
	}
	if sw, ok := rw.(*statusWriter); ok {
		sw.status = http.StatusSwitchingProtocols
	}
	_ = conn.SetDeadline(time.Time{})
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + upgrade.Protocol + "\r\n\r\n")
	if err := brw.Flush(); err != nil {
		conn.Close()
		return
	}
	hello, err := upgrade.Accept(conn, brw.Reader, h.nodeID, h.repl != nil)
	switch {
	case err != nil:
		conn.Close()
	case hello.Link:
		h.repl.AcceptLink(conn, brw, hello.Source, hello.Epoch)
	default:
		h.stream.ServeConn(conn, brw.Reader)
	}
}

// dispatch routes one request with explicit matching so unknown paths
// and wrong methods get the same JSON envelope as handler errors.
// Routing splits the escaped path, so identifiers containing %2F (e.g.
// user IDs with slashes, sent path-escaped by reefclient) stay one
// segment; wildcard segments are unescaped before use. ServeHTTP (in
// observe.go) resolves the route (routeOf), which matches the path's
// whole shape, so a wildcard route's seg has its three segments; it
// wraps this with the tracing and metrics middleware.
func (h *Handler) dispatch(rw http.ResponseWriter, req *http.Request, r route, seg []string) {
	switch r {
	case routeClicks:
		h.route(rw, req, "POST", h.handleClicks)
	case routeEvents:
		h.route(rw, req, "POST", h.handleEvents)
	case routeEventsBatch:
		h.route(rw, req, "POST", h.handleEventsBatch)
	case routeStats:
		h.route(rw, req, "GET", h.handleStats)
	case routeMetrics:
		h.route(rw, req, "GET", h.handleMetrics)
	case routeAdminTrace:
		h.route(rw, req, "GET", h.handleTrace)
	case routeHealthz:
		h.route(rw, req, "GET", h.handleHealthz)
	case routeReadyz:
		h.route(rw, req, "GET", h.handleReadyz)
	case routeRecommendations:
		h.route(rw, req, "GET", h.handleRecommendations)
	case routeAdminDeadLetter:
		h.route(rw, req, "GET POST", h.handleDeadLetter)
	case routeSubscriptionAck, routeSubscriptionEvents:
		id, ok := h.pathSegment(rw, seg[1])
		if !ok {
			return
		}
		if r == routeSubscriptionAck {
			h.route(rw, req, "POST", func(rw http.ResponseWriter, req *http.Request) {
				h.handleAck(rw, req, id)
			})
		} else {
			h.route(rw, req, "GET", func(rw http.ResponseWriter, req *http.Request) {
				h.handleFetchEvents(rw, req, id)
			})
		}
	case routeAdminReplication:
		h.route(rw, req, "GET", h.handleReplicationStatus)
	case routeStream:
		h.route(rw, req, "POST", h.serveStream)
	case routeAdminStorage:
		h.route(rw, req, "GET", h.handleStorage)
	case routeAdminSnapshot:
		h.route(rw, req, "POST", h.handleSnapshot)
	case routeRecommendationAccept, routeRecommendationReject:
		id, ok := h.pathSegment(rw, seg[1])
		if !ok {
			return
		}
		h.route(rw, req, "POST", func(rw http.ResponseWriter, req *http.Request) {
			h.handleDecision(rw, req, id, seg[2])
		})
	case routeUserSubscriptions:
		user, ok := h.pathSegment(rw, seg[1])
		if !ok {
			return
		}
		h.route(rw, req, "GET PUT DELETE", func(rw http.ResponseWriter, req *http.Request) {
			h.handleSubscriptions(rw, req, user)
		})
	default:
		h.writeError(rw, http.StatusNotFound, CodeNotFound, "unknown path "+req.URL.Path)
	}
}

// pathSegment unescapes one wildcard path segment, writing the error
// envelope and returning false on malformed escapes.
func (h *Handler) pathSegment(rw http.ResponseWriter, escaped string) (string, bool) {
	v, err := url.PathUnescape(escaped)
	if err != nil {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad path segment: "+err.Error())
		return "", false
	}
	return v, true
}

// route enforces the allowed methods before dispatching.
func (h *Handler) route(rw http.ResponseWriter, req *http.Request, allowed string, fn http.HandlerFunc) {
	for _, m := range strings.Fields(allowed) {
		if req.Method == m {
			fn(rw, req)
			return
		}
	}
	rw.Header().Set("Allow", strings.Join(strings.Fields(allowed), ", "))
	h.writeError(rw, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		req.Method+" not allowed; use "+allowed)
}

func (h *Handler) handleClicks(rw http.ResponseWriter, req *http.Request) {
	var body ClicksRequest
	if !h.readJSON(rw, req, &body) {
		return
	}
	// An empty batch is a no-op, not an error — in-process deployments
	// return (0, nil) for it, and remote callers get the same behavior.
	n, err := h.dep.IngestClicks(req.Context(), body.Clicks)
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusAccepted, ClicksResponse{Accepted: n})
}

func (h *Handler) handleEvents(rw http.ResponseWriter, req *http.Request) {
	var ev reef.Event
	if !h.readJSON(rw, req, &ev) {
		return
	}
	n, err := h.dep.PublishEvent(req.Context(), ev)
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, EventResponse{Delivered: n})
}

func (h *Handler) handleEventsBatch(rw http.ResponseWriter, req *http.Request) {
	var body EventsBatchRequest
	if !h.readJSON(rw, req, &body) {
		return
	}
	// An empty batch is a no-op, mirroring the in-process deployments.
	n, err := h.dep.PublishBatch(req.Context(), body.Events)
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, EventResponse{Delivered: n})
}

func (h *Handler) handleSubscriptions(rw http.ResponseWriter, req *http.Request, user string) {
	ctx := req.Context()
	switch req.Method {
	case http.MethodGet:
		subs, err := h.dep.Subscriptions(ctx, user)
		if err != nil {
			h.writeDeploymentError(rw, err)
			return
		}
		h.writeJSON(rw, http.StatusOK, SubscriptionsResponse{Subscriptions: subs})
	case http.MethodPut:
		var body SubscribeRequest
		if !h.readJSON(rw, req, &body) {
			return
		}
		opts, err := subscribeOptions(body.Delivery)
		if err != nil {
			h.writeDeploymentError(rw, err)
			return
		}
		sub, err := h.dep.Subscribe(ctx, user, body.FeedURL, opts...)
		if err != nil {
			h.writeDeploymentError(rw, err)
			return
		}
		h.writeJSON(rw, http.StatusCreated, sub)
	case http.MethodDelete:
		feed := req.URL.Query().Get("feed")
		if feed == "" {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing feed parameter")
			return
		}
		if err := h.dep.Unsubscribe(ctx, user, feed); err != nil {
			h.writeDeploymentError(rw, err)
			return
		}
		h.writeJSON(rw, http.StatusOK, struct {
			Deleted string `json:"deleted"`
		}{Deleted: feed})
	}
}

func (h *Handler) handleRecommendations(rw http.ResponseWriter, req *http.Request) {
	user := req.URL.Query().Get("user")
	if user == "" {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing user parameter")
		return
	}
	recs, err := h.dep.Recommendations(req.Context(), user)
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, RecommendationsResponse{Recommendations: recs})
}

func (h *Handler) handleDecision(rw http.ResponseWriter, req *http.Request, id, verb string) {
	var body DecisionRequest
	if !h.readJSON(rw, req, &body) {
		return
	}
	var err error
	if verb == "accept" {
		err = h.dep.AcceptRecommendation(req.Context(), body.User, id)
	} else {
		err = h.dep.RejectRecommendation(req.Context(), body.User, id)
	}
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, struct {
		ID     string `json:"id"`
		Action string `json:"action"`
	}{ID: id, Action: verb})
}

// handleStats answers the deployment's flat stats, with the node-scoped
// replication keys merged in when a manager is mounted, so one call
// covers both.
func (h *Handler) handleStats(rw http.ResponseWriter, req *http.Request) {
	stats, err := h.dep.Stats(req.Context())
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	if h.repl != nil {
		for _, s := range h.repl.Samples() {
			stats[s.Key()] = s.Value // every Stats call returns a fresh map
		}
	}
	h.writeJSON(rw, http.StatusOK, StatsResponse{Stats: stats})
}

// handleHealthz answers the liveness probe. A closed (or otherwise
// failing) deployment turns the probe into the matching error envelope,
// so an orchestrator sees 503 once the deployment stops serving.
func (h *Handler) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	out := HealthResponse{Status: "ok", Shards: 1, Backend: "memory", Node: h.nodeID,
		StreamAddr: h.streamAddr, Version: Version(), UptimeSeconds: h.uptimeSeconds()}
	if s, ok := h.dep.(reef.Sharder); ok {
		out.Shards = s.ShardCount()
	}
	if p, ok := h.dep.(reef.Persister); ok {
		info, err := p.StorageInfo(req.Context())
		if err != nil {
			h.writeDeploymentError(rw, err)
			return
		}
		out.Backend = info.Backend
	} else {
		// Liveness still needs a real call against the deployment.
		if _, err := h.dep.Stats(req.Context()); err != nil {
			h.writeDeploymentError(rw, err)
			return
		}
	}
	h.writeJSON(rw, http.StatusOK, out)
}

// handleReadyz answers the readiness probe. With a Readiness gate the
// gate alone decides; without one, readiness mirrors liveness. Both the
// 200 and 503 answers carry the ReadyResponse shape (not the error
// envelope) so probers can read the status string.
func (h *Handler) handleReadyz(rw http.ResponseWriter, req *http.Request) {
	out := ReadyResponse{Status: ReadyOK, Node: h.nodeID, Version: Version(), UptimeSeconds: h.uptimeSeconds()}
	if h.ready != nil {
		out.Status = h.ready.State()
	} else if _, err := h.dep.Stats(req.Context()); err != nil {
		out.Status = ReadyDraining
	}
	status := http.StatusOK
	if out.Status != ReadyOK {
		status = http.StatusServiceUnavailable
	}
	h.writeJSON(rw, status, out)
}

// subscribeOptions translates the wire delivery config into subscribe
// options. Unknown guarantee names fail with the rich *ConfigError the
// reef package builds.
func subscribeOptions(d *DeliveryConfig) ([]reef.SubscribeOption, error) {
	if d == nil {
		return nil, nil
	}
	var opts []reef.SubscribeOption
	if d.Guarantee != "" {
		g, err := reef.ParseDeliveryGuarantee(d.Guarantee)
		if err != nil {
			return nil, err
		}
		opts = append(opts, reef.WithGuarantee(g))
	}
	if d.AckTimeoutMS != 0 {
		opts = append(opts, reef.WithAckTimeout(time.Duration(d.AckTimeoutMS)*time.Millisecond))
	}
	if d.MaxAttempts != 0 {
		opts = append(opts, reef.WithMaxAttempts(d.MaxAttempts))
	}
	return opts, nil
}

// reliable unwraps the deployment's reliable-delivery surface, answering
// the 501 envelope when it has none.
func (h *Handler) reliable(rw http.ResponseWriter) (reef.ReliableDeliverer, bool) {
	r, ok := h.dep.(reef.ReliableDeliverer)
	if !ok {
		h.writeDeploymentError(rw, fmt.Errorf("%w: deployment has no reliable-delivery surface", reef.ErrUnsupported))
		return nil, false
	}
	return r, true
}

// handleAck advances (or nacks against) one subscription's delivery
// cursor.
func (h *Handler) handleAck(rw http.ResponseWriter, req *http.Request, id string) {
	r, ok := h.reliable(rw)
	if !ok {
		return
	}
	var body AckRequest
	if !h.readJSON(rw, req, &body) {
		return
	}
	if err := r.Ack(req.Context(), body.User, id, body.Seq, body.Nack); err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	action := "ack"
	if body.Nack {
		action = "nack"
	}
	h.writeJSON(rw, http.StatusOK, AckResponse{ID: id, Seq: body.Seq, Action: action})
}

// handleFetchEvents leases retained events of one reliable subscription.
func (h *Handler) handleFetchEvents(rw http.ResponseWriter, req *http.Request, id string) {
	r, ok := h.reliable(rw)
	if !ok {
		return
	}
	q := req.URL.Query()
	user := q.Get("user")
	if user == "" {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing user parameter")
		return
	}
	max := 0
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad max parameter: "+err.Error())
			return
		}
		max = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad wait parameter: "+err.Error())
			return
		}
		if d < 0 {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad wait parameter: negative duration")
			return
		}
		if d > MaxFetchWait {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument,
				fmt.Sprintf("bad wait parameter: %s exceeds the %s maximum", d, MaxFetchWait))
			return
		}
		wait = d
	}
	evs, err := h.fetchEventsWait(req.Context(), r, user, id, max, wait)
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, DeliveredResponse{Events: evs})
}

// MaxFetchWait caps the wait= long-poll parameter of the fetch-events
// endpoint, keeping a handler goroutine's lifetime bounded.
const MaxFetchWait = 30 * time.Second

// fetchEventsWait is the bounded long-poll behind wait=: when the first
// fetch comes back empty it parks on the deployment's queue-notify hook
// (the same hook the streaming push path uses) and re-fetches when the
// subscription retains something, until the wait budget runs out. A
// deployment without the hook falls back to a coarse poll tick, so the
// parameter works — just less efficiently — against any reliable
// deployment.
func (h *Handler) fetchEventsWait(ctx context.Context, r reef.ReliableDeliverer, user, id string, max int, wait time.Duration) ([]reef.DeliveredEvent, error) {
	evs, err := r.FetchEvents(ctx, user, id, max)
	if err != nil || len(evs) > 0 || wait <= 0 {
		return evs, err
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	notify := make(chan struct{}, 1)
	if sd, ok := r.(reef.StreamDeliverer); ok {
		cancel, err := sd.NotifyEvents(user, id, notify)
		if err != nil {
			return nil, err
		}
		defer cancel()
	} else {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-tick.C:
					select {
					case notify <- struct{}{}:
					default:
					}
				case <-stop:
					return
				}
			}
		}()
	}
	for {
		select {
		case <-notify:
		case <-deadline.C:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		evs, err := r.FetchEvents(ctx, user, id, max)
		if err != nil || len(evs) > 0 {
			return evs, err
		}
	}
}

// handleDeadLetter inspects (GET) or drains (POST) dead-letter queues.
func (h *Handler) handleDeadLetter(rw http.ResponseWriter, req *http.Request) {
	r, ok := h.reliable(rw)
	if !ok {
		return
	}
	var user, subID string
	drain := req.Method == http.MethodPost
	if drain {
		var body DeadLetterDrainRequest
		if !h.readJSON(rw, req, &body) {
			return
		}
		user, subID = body.User, body.Subscription
	} else {
		q := req.URL.Query()
		user, subID = q.Get("user"), q.Get("subscription")
	}
	if user == "" {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "missing user parameter")
		return
	}
	var (
		out []reef.DeadLetter
		err error
	)
	if drain {
		out, err = r.DrainDeadLetters(req.Context(), user, subID)
	} else {
		out, err = r.DeadLetters(req.Context(), user, subID)
	}
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, DeadLetterResponse{DeadLetters: out})
}

// persister unwraps the deployment's durability surface, answering the
// 501 envelope when it has none.
func (h *Handler) persister(rw http.ResponseWriter) (reef.Persister, bool) {
	p, ok := h.dep.(reef.Persister)
	if !ok {
		h.writeDeploymentError(rw, fmt.Errorf("%w: deployment has no persistence surface", reef.ErrUnsupported))
		return nil, false
	}
	return p, true
}

func (h *Handler) handleStorage(rw http.ResponseWriter, req *http.Request) {
	p, ok := h.persister(rw)
	if !ok {
		return
	}
	info, err := p.StorageInfo(req.Context())
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, StorageResponse{Storage: info})
}

func (h *Handler) handleSnapshot(rw http.ResponseWriter, req *http.Request) {
	p, ok := h.persister(rw)
	if !ok {
		return
	}
	info, err := p.Snapshot(req.Context())
	if err != nil {
		h.writeDeploymentError(rw, err)
		return
	}
	h.writeJSON(rw, http.StatusOK, StorageResponse{Storage: info})
}

// readBody reads a request body of at most limit bytes, writing the
// error envelope and returning false on failure: 413 for a longer body,
// which is refused whole rather than cut short.
func (h *Handler) readBody(rw http.ResponseWriter, req *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, limit+1))
	if err != nil {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "reading body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > limit {
		h.writeError(rw, http.StatusRequestEntityTooLarge, CodeInvalidArgument,
			fmt.Sprintf("request body exceeds %d bytes", limit))
		return nil, false
	}
	return body, true
}

// readJSON decodes a bounded request body, writing the error envelope and
// returning false on failure.
func (h *Handler) readJSON(rw http.ResponseWriter, req *http.Request, into any) bool {
	body, ok := h.readBody(rw, req, maxBodyBytes)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// writeJSON writes a JSON response, checking the encode error.
func (h *Handler) writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	if err := json.NewEncoder(rw).Encode(v); err != nil && h.log != nil {
		// The status line is gone; all we can do is record the failure.
		h.log.Printf("reefhttp: encoding %T response: %v", v, err)
	}
}

// writeError writes the JSON error envelope.
func (h *Handler) writeError(rw http.ResponseWriter, status int, code, msg string) {
	h.writeJSON(rw, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// writeDeploymentError maps reef sentinel errors to status codes.
func (h *Handler) writeDeploymentError(rw http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, reef.ErrInvalidArgument):
		h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, err.Error())
	case errors.Is(err, reef.ErrNotFound):
		h.writeError(rw, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, reef.ErrClosed):
		h.writeError(rw, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
	case errors.Is(err, reef.ErrUnsupported):
		h.writeError(rw, http.StatusNotImplemented, CodeUnsupported, err.Error())
	default:
		h.writeError(rw, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}
