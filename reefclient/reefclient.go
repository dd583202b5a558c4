// Package reefclient is the Go SDK for the reef REST surface
// (reefhttp). The Client itself satisfies reef.Deployment, so code
// written against the interface runs unchanged whether the deployment is
// in-process or behind a reefd server; error-envelope codes map back to
// the reef sentinel errors, keeping errors.Is checks working across the
// wire.
package reefclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"reef/internal/replication"
	"reef/internal/trace"

	"reef"
	"reef/reefhttp"
)

// APIError is a decoded error envelope from the server. It unwraps to
// the matching reef sentinel error.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable envelope code.
	Code string
	// Message is the human-readable explanation.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("reefclient: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
}

// Unwrap maps the envelope code to the reef sentinel, so
// errors.Is(err, reef.ErrNotFound) works against remote deployments.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case reefhttp.CodeInvalidArgument:
		return reef.ErrInvalidArgument
	case reefhttp.CodeNotFound:
		return reef.ErrNotFound
	case reefhttp.CodeUnavailable:
		return reef.ErrClosed
	case reefhttp.CodeUnsupported:
		return reef.ErrUnsupported
	default:
		return nil
	}
}

// Transport is a binary data plane the client carries its hot verbs
// over instead of REST: publishes, click batches, and the reliable
// consume path (server-pushed fetches and pipelined acks).
// reefstream.Client satisfies it. What the transport returns for these
// five verbs, result and error, is the Client's answer: no call is
// repeated over REST, which stays the plane of every other verb. Close
// releases the transport's connection; the Client's own Close calls it.
type Transport interface {
	PublishEvent(ctx context.Context, ev reef.Event) (int, error)
	PublishBatch(ctx context.Context, evs []reef.Event) (int, error)
	IngestClicks(ctx context.Context, clicks []reef.Click) (int, error)
	FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error)
	Ack(ctx context.Context, user, subID string, seq int64, nack bool) error
	Close() error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTransport routes PublishEvent, PublishBatch, IngestClicks,
// FetchEvents and Ack over a streaming data plane and returns its
// answers as they are, while every other call stays on REST. The client
// owns the transport: Close closes it.
func WithTransport(t Transport) Option {
	return func(c *Client) { c.transport = t }
}

// WithTimeout bounds each request attempt with its own deadline (on top
// of whatever deadline the caller's context carries). Each retry
// attempt gets a fresh budget, so a request's worst case is
// attempts × timeout plus backoff. Zero (the default) adds no deadline.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetry enables bounded retry with jittered exponential backoff for
// failures that are safe or idempotent-enough to repeat: connection
// errors (the request likely never reached a handler) and 502/503
// responses (a proxy without a backend, or a deployment that is
// starting, draining or closed — exactly the transients a cluster
// forwarding path sees around a node restart). retries is how many
// extra attempts follow the first (so retries=2 means at most 3 calls);
// backoff is the first delay, doubled each attempt, with a uniform
// jitter of up to one backoff unit added (zero backoff defaults to
// 50ms). The default — no WithRetry — keeps the old single-attempt
// behavior. 4xx responses and context cancellation never retry.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) {
		if retries < 0 {
			retries = 0
		}
		if backoff <= 0 {
			backoff = 50 * time.Millisecond
		}
		c.retries = retries
		c.backoff = backoff
	}
}

// Client speaks the /v1 REST surface. Safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	transport Transport
	timeout   time.Duration
	retries   int
	backoff   time.Duration
}

var (
	_ reef.Deployment        = (*Client)(nil)
	_ reef.Persister         = (*Client)(nil)
	_ reef.ReliableDeliverer = (*Client)(nil)
)

// defaultHTTPClient replaces http.DefaultClient as the client's
// default. http.DefaultTransport caps idle connections at 2 per host
// (MaxIdleConnsPerHost), so any concurrency beyond 2 against one server
// — a cluster fan-out, a parallel publisher — closes and redials TCP
// connections on nearly every call. This pool keeps enough idle
// connections around that steady traffic reuses them.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		ForceAttemptHTTP2:   true,
	},
}

// New builds a client for a server root, e.g. "http://127.0.0.1:7070".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   defaultHTTPClient,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do sends one request with a JSON body (nil for none) and decodes the
// response into out (nil to discard). Non-2xx responses become *APIError.
// With WithRetry, connection errors and 502/503 answers repeat up to the
// retry budget with jittered exponential backoff; the body is marshaled
// once and replayed per attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("reefclient: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, in != nil, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= c.retries || ctx.Err() != nil || !c.retryable(err) {
			return lastErr
		}
		// Exponential backoff with up to one backoff unit of jitter, so
		// concurrent callers hammering a recovering node spread out.
		delay := c.backoff<<attempt + time.Duration(rand.Int63n(int64(c.backoff)+1))
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return lastErr
		case <-timer.C:
		}
	}
}

// terminalError marks a failure that happened AFTER the server may
// already have processed the request — a 2xx arrived but its body
// could not be read or decoded. Retrying would re-send a mutation the
// server likely applied, so these are never retried.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// retryable reports whether an attempt's failure is worth repeating:
// transport-level errors (connection refused, reset — the request
// likely never reached a handler) and 502/503 envelopes. Cancellation,
// post-2xx body failures (see terminalError) and every other HTTP
// status are final; a DeadlineExceeded can only be the per-attempt
// timeout here (the caller already checked the parent context), so
// with WithTimeout armed it retries with a fresh budget.
func (c *Client) retryable(err error) bool {
	var term *terminalError
	if errors.As(err, &term) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusBadGateway ||
			apiErr.StatusCode == http.StatusServiceUnavailable
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return c.timeout > 0
	}
	return true
}

// doOnce performs a single attempt, applying the per-attempt timeout.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, hasBody bool, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("reefclient: building request: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if id, ok := trace.FromContext(ctx); ok {
		req.Header.Set(trace.Header, id.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("reefclient: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	respData, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		// Past this point the server processed the request; failures are
		// terminal (never retried) so a mutation is not re-sent.
		if err != nil {
			return &terminalError{fmt.Errorf("reefclient: reading response: %w", err)}
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(respData, out); err != nil {
			return &terminalError{fmt.Errorf("reefclient: decoding %s %s response: %w", method, path, err)}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("reefclient: reading response: %w", err)
	}
	var envelope reefhttp.ErrorBody
	if err := json.Unmarshal(respData, &envelope); err != nil || envelope.Error.Code == "" {
		return &APIError{StatusCode: resp.StatusCode, Code: reefhttp.CodeInternal,
			Message: strings.TrimSpace(string(respData))}
	}
	return &APIError{StatusCode: resp.StatusCode, Code: envelope.Error.Code,
		Message: envelope.Error.Message}
}

// IngestClicks implements reef.Deployment over POST /v1/clicks, or over
// the streaming data plane when WithTransport is set.
func (c *Client) IngestClicks(ctx context.Context, clicks []reef.Click) (int, error) {
	if c.transport != nil {
		return c.transport.IngestClicks(ctx, clicks)
	}
	var out reefhttp.ClicksResponse
	err := c.do(ctx, http.MethodPost, "/v1/clicks", reefhttp.ClicksRequest{Clicks: clicks}, &out)
	if err != nil {
		return 0, err
	}
	return out.Accepted, nil
}

// PublishEvent implements reef.Deployment over POST /v1/events, or over
// the streaming data plane when WithTransport is set.
func (c *Client) PublishEvent(ctx context.Context, ev reef.Event) (int, error) {
	if c.transport != nil {
		return c.transport.PublishEvent(ctx, ev)
	}
	var out reefhttp.EventResponse
	if err := c.do(ctx, http.MethodPost, "/v1/events", ev, &out); err != nil {
		return 0, err
	}
	return out.Delivered, nil
}

// PublishBatch implements reef.Deployment over POST /v1/events:batch,
// amortizing one HTTP round trip over the whole batch — or over the
// streaming data plane when WithTransport is set.
func (c *Client) PublishBatch(ctx context.Context, evs []reef.Event) (int, error) {
	if c.transport != nil {
		return c.transport.PublishBatch(ctx, evs)
	}
	var out reefhttp.EventResponse
	err := c.do(ctx, http.MethodPost, "/v1/events:batch", reefhttp.EventsBatchRequest{Events: evs}, &out)
	if err != nil {
		return 0, err
	}
	return out.Delivered, nil
}

// Subscriptions implements reef.Deployment over GET /v1/users/{u}/subscriptions.
func (c *Client) Subscriptions(ctx context.Context, user string) ([]reef.Subscription, error) {
	var out reefhttp.SubscriptionsResponse
	err := c.do(ctx, http.MethodGet, "/v1/users/"+url.PathEscape(user)+"/subscriptions", nil, &out)
	if err != nil {
		return nil, err
	}
	return out.Subscriptions, nil
}

// Subscribe implements reef.Deployment over PUT /v1/users/{u}/subscriptions.
// Delivery options are validated locally first (so a bad combination
// fails with the same rich *ConfigError an in-process deployment
// produces, without a round trip), then serialized onto the wire.
func (c *Client) Subscribe(ctx context.Context, user, feedURL string, opts ...reef.SubscribeOption) (reef.Subscription, error) {
	sc, err := reef.NewSubscribeConfig(opts...)
	if err != nil {
		return reef.Subscription{}, err
	}
	body := reefhttp.SubscribeRequest{FeedURL: feedURL}
	if sc.Guarantee == reef.AtLeastOnce {
		body.Delivery = &reefhttp.DeliveryConfig{
			Guarantee:    sc.Guarantee.String(),
			AckTimeoutMS: sc.AckTimeout.Milliseconds(),
			MaxAttempts:  sc.MaxAttempts,
		}
	}
	var out reef.Subscription
	err = c.do(ctx, http.MethodPut, "/v1/users/"+url.PathEscape(user)+"/subscriptions", body, &out)
	return out, err
}

// FetchEvents implements reef.ReliableDeliverer over GET
// /v1/subscriptions/{id}/events, or over the stream's server-pushed
// consume plane when WithTransport is set.
func (c *Client) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	if c.transport != nil {
		return c.transport.FetchEvents(ctx, user, subID, max)
	}
	path := "/v1/subscriptions/" + url.PathEscape(subID) + "/events?user=" + url.QueryEscape(user)
	if max > 0 {
		path += "&max=" + strconv.Itoa(max)
	}
	var out reefhttp.DeliveredResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Events, nil
}

// Ack implements reef.ReliableDeliverer over POST
// /v1/subscriptions/{id}/ack, or over the stream when WithTransport is
// set. Acks are cumulative and idempotent on the server, so WithRetry
// may safely repeat one.
func (c *Client) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	if c.transport != nil {
		return c.transport.Ack(ctx, user, subID, seq, nack)
	}
	return c.do(ctx, http.MethodPost, "/v1/subscriptions/"+url.PathEscape(subID)+"/ack",
		reefhttp.AckRequest{User: user, Seq: seq, Nack: nack}, nil)
}

// DeadLetters implements reef.ReliableDeliverer over GET
// /v1/admin/deadletter. An empty subID aggregates every subscription of
// the user.
func (c *Client) DeadLetters(ctx context.Context, user, subID string) ([]reef.DeadLetter, error) {
	path := "/v1/admin/deadletter?user=" + url.QueryEscape(user)
	if subID != "" {
		path += "&subscription=" + url.QueryEscape(subID)
	}
	var out reefhttp.DeadLetterResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.DeadLetters, nil
}

// DrainDeadLetters implements reef.ReliableDeliverer over POST
// /v1/admin/deadletter, removing what it returns.
func (c *Client) DrainDeadLetters(ctx context.Context, user, subID string) ([]reef.DeadLetter, error) {
	var out reefhttp.DeadLetterResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/deadletter",
		reefhttp.DeadLetterDrainRequest{User: user, Subscription: subID}, &out)
	if err != nil {
		return nil, err
	}
	return out.DeadLetters, nil
}

// Unsubscribe implements reef.Deployment over DELETE /v1/users/{u}/subscriptions.
func (c *Client) Unsubscribe(ctx context.Context, user, feedURL string) error {
	return c.do(ctx, http.MethodDelete,
		"/v1/users/"+url.PathEscape(user)+"/subscriptions?feed="+url.QueryEscape(feedURL), nil, nil)
}

// Recommendations implements reef.Deployment over GET /v1/recommendations.
func (c *Client) Recommendations(ctx context.Context, user string) ([]reef.Recommendation, error) {
	var out reefhttp.RecommendationsResponse
	err := c.do(ctx, http.MethodGet, "/v1/recommendations?user="+url.QueryEscape(user), nil, &out)
	if err != nil {
		return nil, err
	}
	return out.Recommendations, nil
}

// AcceptRecommendation implements reef.Deployment over POST
// /v1/recommendations/{id}/accept.
func (c *Client) AcceptRecommendation(ctx context.Context, user, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/recommendations/"+url.PathEscape(id)+"/accept",
		reefhttp.DecisionRequest{User: user}, nil)
}

// RejectRecommendation implements reef.Deployment over POST
// /v1/recommendations/{id}/reject.
func (c *Client) RejectRecommendation(ctx context.Context, user, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/recommendations/"+url.PathEscape(id)+"/reject",
		reefhttp.DecisionRequest{User: user}, nil)
}

// Stats implements reef.Deployment over GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (reef.Stats, error) {
	var out reefhttp.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return out.Stats, nil
}

// Health probes GET /v1/healthz: liveness plus the server deployment's
// shard count and storage backend. A non-2xx answer (including the 503
// a closed deployment produces) comes back as *APIError, so errors.Is
// against the reef sentinels works on probe failures too.
func (c *Client) Health(ctx context.Context) (reefhttp.HealthResponse, error) {
	var out reefhttp.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		return reefhttp.HealthResponse{}, err
	}
	return out, nil
}

// Ready probes GET /v1/readyz. Readiness is deliberately not routed
// through do: the 503 a starting or draining node answers carries a
// ReadyResponse body, not the error envelope, and the prober needs that
// status string. On a non-200 the decoded body (when present) comes
// back alongside the *APIError, so callers can distinguish a draining
// node (resp.Status "draining", err non-nil) from an unreachable one
// (resp zero, err non-nil). Ready never retries, whatever WithRetry
// says — a probe wants the answer now.
func (c *Client) Ready(ctx context.Context) (reefhttp.ReadyResponse, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/readyz", nil)
	if err != nil {
		return reefhttp.ReadyResponse{}, fmt.Errorf("reefclient: building request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reefhttp.ReadyResponse{}, fmt.Errorf("reefclient: GET /v1/readyz: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return reefhttp.ReadyResponse{}, fmt.Errorf("reefclient: reading response: %w", err)
	}
	var out reefhttp.ReadyResponse
	_ = json.Unmarshal(data, &out)
	if resp.StatusCode == http.StatusOK {
		if out.Status == "" {
			return out, fmt.Errorf("reefclient: decoding /v1/readyz response %q", data)
		}
		return out, nil
	}
	// A gated 503 carries the ReadyResponse shape; anything else (an old
	// server 404ing the route, a proxy error page) may carry the envelope.
	apiErr := &APIError{StatusCode: resp.StatusCode, Code: reefhttp.CodeUnavailable,
		Message: "node not ready: " + strings.TrimSpace(string(data))}
	var envelope reefhttp.ErrorBody
	if json.Unmarshal(data, &envelope) == nil && envelope.Error.Code != "" {
		apiErr.Code, apiErr.Message = envelope.Error.Code, envelope.Error.Message
	}
	return out, apiErr
}

// StorageInfo implements reef.Persister over GET /v1/admin/storage. A
// server whose deployment has no persistence surface answers with the
// "unsupported" envelope, surfaced as reef.ErrUnsupported.
func (c *Client) StorageInfo(ctx context.Context) (reef.StorageInfo, error) {
	var out reefhttp.StorageResponse
	if err := c.do(ctx, http.MethodGet, "/v1/admin/storage", nil, &out); err != nil {
		return reef.StorageInfo{}, err
	}
	return out.Storage, nil
}

// Snapshot implements reef.Persister over POST /v1/admin/snapshot,
// forcing a compacting snapshot on the server's deployment.
func (c *Client) Snapshot(ctx context.Context) (reef.StorageInfo, error) {
	var out reefhttp.StorageResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/snapshot", nil, &out); err != nil {
		return reef.StorageInfo{}, err
	}
	return out.Storage, nil
}

// ReplicationStatus fetches GET /v1/admin/replication: the node's
// outbound stream positions (shipped watermark, pending backlog, lag
// p99, resyncs) and inbound source positions. A server running without
// replication answers the "unsupported" envelope, surfaced as
// reef.ErrUnsupported.
func (c *Client) ReplicationStatus(ctx context.Context) (replication.Status, error) {
	var out reefhttp.ReplicationStatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/admin/replication", nil, &out); err != nil {
		return replication.Status{}, err
	}
	return out.Replication, nil
}

// Metrics fetches GET /v1/metrics: the server's Prometheus text
// exposition, verbatim. Callers forwarding it to a scraper should use
// reefhttp.ContentTypeMetrics as the Content-Type.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("reefclient: building request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("reefclient: GET /v1/metrics: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("reefclient: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Code: reefhttp.CodeInternal,
			Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}

// TraceDump fetches GET /v1/admin/trace: the server's span ring, oldest
// first. A non-empty traceID (32 hex characters, as echoed in the
// X-Reef-Trace response header) filters to that trace; limit > 0 keeps
// the newest limit spans.
func (c *Client) TraceDump(ctx context.Context, traceID string, limit int) (reefhttp.TraceResponse, error) {
	path := "/v1/admin/trace"
	sep := "?"
	if traceID != "" {
		path += sep + "trace=" + url.QueryEscape(traceID)
		sep = "&"
	}
	if limit > 0 {
		path += sep + "limit=" + strconv.Itoa(limit)
	}
	var out reefhttp.TraceResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return reefhttp.TraceResponse{}, err
	}
	return out, nil
}

// Close implements reef.Deployment; the client holds no server-side
// resources, but a WithTransport data plane owns a connection, which is
// closed here.
func (c *Client) Close() error {
	if c.transport != nil {
		return c.transport.Close()
	}
	return nil
}
