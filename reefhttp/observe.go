package reefhttp

import (
	"context"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reef/internal/metrics"
	"reef/internal/trace"
)

// This file is the observability middleware of the REST surface: the
// ServeHTTP wrapper that mints/propagates trace IDs and feeds the
// per-route metrics, plus the /v1/metrics exposition and
// /v1/admin/trace span-dump endpoints.

// TraceHeader is the HTTP header carrying a hex trace ID across REST
// calls (re-exported so wire-level callers need not import the internal
// package); a replication batch carries its trace ID in its header.
const TraceHeader = trace.Header

// WithMetrics substitutes a shared metrics registry, so a process
// hosting several surfaces (REST handler, stream listener, cluster
// router) exposes them in one /v1/metrics scrape.
func WithMetrics(r *metrics.Registry) HandlerOption {
	return func(h *Handler) { h.metrics = r }
}

// WithTrace substitutes a shared span recorder, so spans recorded by
// the stream data plane and the REST surface land in the same
// /v1/admin/trace ring.
func WithTrace(r *trace.Recorder) HandlerOption {
	return func(h *Handler) { h.tracer = r }
}

// WithStartTime overrides the uptime epoch reported by healthz/readyz
// (reefd passes its process start, which predates handler creation by
// the whole WAL recovery replay).
func WithStartTime(t time.Time) HandlerOption {
	return func(h *Handler) { h.start = t }
}

// Metrics returns the handler's registry, for callers instrumenting
// adjacent components into the same scrape.
func (h *Handler) Metrics() *metrics.Registry { return h.metrics }

var (
	versionOnce sync.Once
	versionStr  string
)

// Version reports the serving build: the main module version from
// debug/buildinfo, with the stamped VCS revision (shortened) appended
// when present, or "devel" when nothing is stamped.
func Version() string {
	versionOnce.Do(func() {
		versionStr = "devel"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			versionStr = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				rev := s.Value
				if len(rev) > 12 {
					rev = rev[:12]
				}
				versionStr += "+" + rev
				break
			}
		}
	})
	return versionStr
}

func (h *Handler) uptimeSeconds() float64 {
	if h.start.IsZero() {
		return 0
	}
	return time.Since(h.start).Seconds()
}

// statusWriter captures the status code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the server's writer to http.ResponseController, which
// the upgrade routes hijack the connection through.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// probeRoutes are scraped or polled continuously; the middleware never
// mints trace IDs for them (an incoming X-Reef-Trace still propagates),
// keeping probe noise out of the span ring.
var probeRoutes = [numRoutes]bool{
	routeHealthz: true, routeReadyz: true, routeMetrics: true, routeAdminTrace: true,
}

// ServeHTTP implements http.Handler: the observability middleware
// around dispatch. It resolves the trace ID (the X-Reef-Trace request
// header when present, a freshly minted ID otherwise — except on probe
// routes), threads it through the request context, echoes it on the
// response, and records one span plus the per-route latency histogram,
// status-class counter and in-flight gauge.
func (h *Handler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	rest, ok := strings.CutPrefix(req.URL.EscapedPath(), "/v1/")
	if !ok {
		h.writeError(rw, http.StatusNotFound, CodeNotFound, "unknown path "+req.URL.Path)
		return
	}
	seg := strings.Split(strings.Trim(rest, "/"), "/")
	r := routeOf(seg)
	label := routeNames[r]

	id, traced := trace.Parse(req.Header.Get(trace.Header))
	if !traced && !probeRoutes[r] {
		id, traced = trace.NewID(), true
	}
	if traced {
		req = req.WithContext(trace.NewContext(req.Context(), id))
		rw.Header().Set(trace.Header, id.String())
	}

	sw := &statusWriter{ResponseWriter: rw}
	start := time.Now()
	h.inFlight.Add(1)

	h.dispatch(sw, req, r, seg)

	elapsed := time.Since(start)
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	h.inFlight.Add(-1)
	h.routes[r].observe(h.metrics, label, status, elapsed)
	if traced {
		errStr := ""
		if status >= 400 {
			errStr = "HTTP " + strconv.Itoa(status)
		}
		h.tracer.Record(trace.Span{
			Trace: id, Op: "http." + label, Node: h.nodeID, Shard: -1,
			Start: start, Duration: elapsed, Err: errStr,
		})
		h.metrics.Counter(metrics.TraceSpans.Name).Inc()
	}
}

// route is one route dispatch serves, or routeUnknown for any path it
// does not serve. It indexes routeNames and Handler.routes.
type route int

const (
	routeUnknown route = iota
	routeClicks
	routeEvents
	routeEventsBatch
	routeStats
	routeMetrics
	routeHealthz
	routeReadyz
	routeRecommendations
	routeAdminTrace
	routeAdminDeadLetter
	routeAdminReplication
	routeAdminStorage
	routeAdminSnapshot
	routeStream
	routeSubscriptionAck
	routeSubscriptionEvents
	routeRecommendationAccept
	routeRecommendationReject
	routeUserSubscriptions
	numRoutes
)

// routeNames are the route labels: "unknown" for every path dispatch does
// not serve, then one per route it serves, the path's fixed segments
// joined by dots. A label never comes from a wildcard or an unserved
// segment, so the route series stay as few as the routes.
var routeNames = [numRoutes]string{
	routeUnknown:              "unknown",
	routeClicks:               "clicks",
	routeEvents:               "events",
	routeEventsBatch:          "events:batch",
	routeStats:                "stats",
	routeMetrics:              "metrics",
	routeHealthz:              "healthz",
	routeReadyz:               "readyz",
	routeRecommendations:      "recommendations",
	routeAdminTrace:           "admin.trace",
	routeAdminDeadLetter:      "admin.deadletter",
	routeAdminReplication:     "admin.replication",
	routeAdminStorage:         "admin.storage",
	routeAdminSnapshot:        "admin.snapshot",
	routeStream:               "stream",
	routeSubscriptionAck:      "subscriptions.ack",
	routeSubscriptionEvents:   "subscriptions.events",
	routeRecommendationAccept: "recommendations.accept",
	routeRecommendationReject: "recommendations.reject",
	routeUserSubscriptions:    "users.subscriptions",
}

// routeShapes maps a path's shape to its route. A shape is the path's
// segments joined by "/", with "*" standing for a three-segment route's
// middle (wildcard) segment. Segments are split on "/", so none holds
// one, and a shape's slash count is its segment count less one: a path
// matches a shape only with exactly that many segments, each fixed one
// equal.
var routeShapes = map[string]route{
	"clicks":                   routeClicks,
	"events":                   routeEvents,
	"events:batch":             routeEventsBatch,
	"stats":                    routeStats,
	"metrics":                  routeMetrics,
	"healthz":                  routeHealthz,
	"readyz":                   routeReadyz,
	"recommendations":          routeRecommendations,
	"admin/trace":              routeAdminTrace,
	"admin/deadletter":         routeAdminDeadLetter,
	"admin/replication":        routeAdminReplication,
	"admin/storage":            routeAdminStorage,
	"admin/snapshot":           routeAdminSnapshot,
	"stream":                   routeStream,
	"subscriptions/*/ack":      routeSubscriptionAck,
	"subscriptions/*/events":   routeSubscriptionEvents,
	"recommendations/*/accept": routeRecommendationAccept,
	"recommendations/*/reject": routeRecommendationReject,
	"users/*/subscriptions":    routeUserSubscriptions,
}

// routeOf returns the route a split request path names, routeUnknown
// when dispatch serves no such route.
func routeOf(seg []string) route {
	switch len(seg) {
	case 1:
		return routeShapes[seg[0]]
	case 2:
		return routeShapes[seg[0]+"/"+seg[1]]
	case 3:
		return routeShapes[seg[0]+"/*/"+seg[2]]
	}
	return routeUnknown
}

// routeMeters is one route's request histogram and status-class counters,
// each resolved from the registry at its first use and held from then on,
// so a request pays no label formatting or registry lookup.
type routeMeters struct {
	seconds atomic.Pointer[metrics.Histogram]
	classes [10]atomic.Pointer[metrics.Counter] // by status / 100; net/http refuses codes outside 100-999
}

// observe records one request's latency and status class.
func (rs *routeMeters) observe(reg *metrics.Registry, label string, status int, elapsed time.Duration) {
	routeLbl := metrics.Label{Key: "route", Value: label}
	hist := rs.seconds.Load()
	if hist == nil {
		hist = reg.Histogram(metrics.LabeledName(metrics.HTTPRequestSeconds, routeLbl))
		rs.seconds.Store(hist)
	}
	hist.Observe(elapsed.Seconds())
	cls := &rs.classes[status/100]
	c := cls.Load()
	if c == nil {
		c = reg.Counter(metrics.LabeledName(metrics.HTTPRequests, routeLbl,
			metrics.Label{Key: "class", Value: strconv.Itoa(status/100) + "xx"}))
		cls.Store(c)
	}
	c.Inc()
}

// ContentTypeMetrics is the Content-Type of the /v1/metrics exposition.
const ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// sampler is a deployment that labels its metric series at source
// (reef.Centralized, reef.Distributed, reefcluster.Cluster).
type sampler interface {
	Samples(ctx context.Context) ([]metrics.Sample, error)
}

// handleMetrics serves the Prometheus text exposition: the handler's
// registry (HTTP/stream/trace instrumentation) plus the deployment's
// and the replication manager's samples, each family under its Def in
// internal/metrics. A failing deployment degrades the scrape to the
// rest rather than failing it: a half-blind scrape beats a gap in every
// series.
func (h *Handler) handleMetrics(rw http.ResponseWriter, req *http.Request) {
	var samples []metrics.Sample
	if s, ok := h.dep.(sampler); ok {
		samples, _ = s.Samples(req.Context())
	}
	if h.repl != nil {
		samples = append(samples, h.repl.Samples()...)
	}
	rw.Header().Set("Content-Type", ContentTypeMetrics)
	rw.WriteHeader(http.StatusOK)
	if err := metrics.WriteText(rw, h.metrics, samples); err != nil && h.log != nil {
		h.log.Printf("reefhttp: writing metrics exposition: %v", err)
	}
}

// TraceSpan is one span in the /v1/admin/trace dump.
type TraceSpan struct {
	Trace          string `json:"trace"`
	Op             string `json:"op"`
	Node           string `json:"node,omitempty"`
	Shard          int    `json:"shard"`
	StartUnixNano  int64  `json:"start_unix_nano"`
	DurationMicros int64  `json:"duration_micros"`
	Error          string `json:"error,omitempty"`
}

// TraceResponse is the GET /v1/admin/trace body. Total counts every
// span ever recorded on this node, including ones evicted from the
// ring.
type TraceResponse struct {
	Node  string      `json:"node,omitempty"`
	Total int64       `json:"total"`
	Spans []TraceSpan `json:"spans"`
}

// handleTrace dumps the span ring, oldest first. ?trace=HEX filters to
// one trace; ?limit=N keeps the newest N after filtering.
func (h *Handler) handleTrace(rw http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	var filter trace.ID
	if v := q.Get("trace"); v != "" {
		id, ok := trace.Parse(v)
		if !ok {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad trace parameter: want 32 hex characters")
			return
		}
		filter = id
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			h.writeError(rw, http.StatusBadRequest, CodeInvalidArgument, "bad limit parameter")
			return
		}
		limit = n
	}
	spans := h.tracer.Spans(filter, limit)
	out := TraceResponse{Node: h.nodeID, Total: h.tracer.Total(), Spans: make([]TraceSpan, 0, len(spans))}
	for _, sp := range spans {
		out.Spans = append(out.Spans, TraceSpan{
			Trace:          sp.Trace.String(),
			Op:             sp.Op,
			Node:           sp.Node,
			Shard:          sp.Shard,
			StartUnixNano:  sp.Start.UnixNano(),
			DurationMicros: sp.Duration.Microseconds(),
			Error:          sp.Err,
		})
	}
	h.writeJSON(rw, http.StatusOK, out)
}
