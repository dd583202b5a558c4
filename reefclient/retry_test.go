package reefclient

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/reefhttp"
)

// flakyHandler fails the first n requests with the given status (0 =
// drop the connection), then delegates to ok.
type flakyHandler struct {
	failures int32
	status   int
	remain   atomic.Int32
	ok       http.HandlerFunc
}

func newFlaky(failures int, status int, ok http.HandlerFunc) *flakyHandler {
	h := &flakyHandler{status: status, ok: ok}
	h.remain.Store(int32(failures))
	return h
}

func (h *flakyHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if h.remain.Add(-1) >= 0 {
		if h.status == 0 {
			// Kill the connection mid-request: a transport-level failure.
			hj, ok := rw.(http.Hijacker)
			if !ok {
				panic("test server does not support hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			_ = conn.Close()
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(h.status)
		_, _ = rw.Write([]byte(`{"error":{"code":"unavailable","message":"try later"}}`))
		return
	}
	h.ok(rw, req)
}

func okStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_, _ = rw.Write([]byte(`{"stats":{"ok":1}}`))
}

// TestRetryRecoversFromTransients drives the retry loop through the two
// retryable failure classes — dropped connections and 503 envelopes —
// and checks the call succeeds within the budget.
func TestRetryRecoversFromTransients(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failures int
		status   int // 0 = connection drop
	}{
		{"connection drops", 2, 0},
		{"503 unavailable", 2, http.StatusServiceUnavailable},
		{"502 bad gateway", 2, http.StatusBadGateway},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newFlaky(tc.failures, tc.status, okStats)
			srv := httptest.NewServer(h)
			defer srv.Close()
			cli := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(3, time.Millisecond))
			stats, err := cli.Stats(context.Background())
			if err != nil {
				t.Fatalf("Stats with retry: %v", err)
			}
			if stats["ok"] != 1 {
				t.Fatalf("stats = %v, want ok=1", stats)
			}
		})
	}
}

// TestRetryBudgetExhausted pins the bounded part of bounded retry: a
// server that never recovers fails after exactly 1+retries attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = rw.Write([]byte(`{"error":{"code":"unavailable","message":"down"}}`))
	}))
	defer srv.Close()
	cli := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(2, time.Millisecond))
	_, err := cli.Stats(context.Background())
	if err == nil {
		t.Fatal("Stats succeeded against a permanently failing server")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

// TestNoRetryOn4xx pins that deterministic failures are final: a 404
// must not burn the retry budget.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusNotFound)
		_, _ = rw.Write([]byte(`{"error":{"code":"not_found","message":"no"}}`))
	}))
	defer srv.Close()
	cli := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(3, time.Millisecond))
	err := cli.Unsubscribe(context.Background(), "u", "http://f.test/a.xml")
	if !errors.Is(err, reef.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx is final)", got)
	}
}

// TestNoRetryAfter2xx pins the non-idempotency guard: once the server
// answered 2xx it processed the request, so a body that then fails to
// decode must NOT burn the retry budget re-sending the mutation.
func TestNoRetryAfter2xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusAccepted)
		_, _ = rw.Write([]byte(`{truncated`))
	}))
	defer srv.Close()
	cli := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(3, time.Millisecond))
	_, err := cli.IngestClicks(context.Background(), []reef.Click{{User: "u", URL: "http://a.test/p"}})
	if err == nil {
		t.Fatal("IngestClicks succeeded on an undecodable response")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (post-2xx failures are terminal)", got)
	}
}

// TestRetryOffByDefault pins the compatibility contract: without
// WithRetry a transient 503 surfaces immediately.
func TestRetryOffByDefault(t *testing.T) {
	h := newFlaky(1, http.StatusServiceUnavailable, okStats)
	srv := httptest.NewServer(h)
	defer srv.Close()
	cli := New(srv.URL, WithHTTPClient(srv.Client()))
	if _, err := cli.Stats(context.Background()); !errors.Is(err, reef.ErrClosed) {
		t.Fatalf("err = %v, want the unretried 503 mapped to ErrClosed", err)
	}
}

// TestRetryHonorsContextCancel pins that cancellation cuts the backoff
// sleep short instead of waiting it out.
func TestRetryHonorsContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	cli := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(5, 10*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := cli.Stats(ctx); err == nil {
		t.Fatal("Stats succeeded against a failing server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled call took %v; backoff ignored the context", elapsed)
	}
}

// TestRetryCancelDuringBackoffNoLeak is the regression test for the
// backoff sleep itself: with a backoff far longer than the test, a
// cancellation that lands while do is parked between attempts must
// return promptly (the sleep selects on ctx.Done) and must not strand a
// goroutine behind the timer. The goroutine count is sampled before and
// after; a leaked sleeper would hold the count up for the full 10-minute
// backoff, far beyond the settle loop.
func TestRetryCancelDuringBackoffNoLeak(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = rw.Write([]byte(`{"error":{"code":"unavailable","message":"down"}}`))
	}))
	defer srv.Close()

	before := runtime.NumGoroutine()
	closed := make(chan struct{}, 1)
	hc := &http.Client{Transport: bodyCloseSignal{next: srv.Client().Transport, closed: closed}}
	cli := New(srv.URL, WithHTTPClient(hc), WithRetry(3, 10*time.Minute))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Stats(ctx)
		done <- err
	}()
	// Wait until the first attempt's response is read and closed, so the
	// cancel hits the backoff sleep rather than the request.
	<-closed
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Stats succeeded against a failing server")
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("err = %v, want the last attempt's 503 APIError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call still sleeping after 5s; backoff ignored the context")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (cancel landed in the first backoff)", got)
	}
	// Allow the HTTP machinery to wind down (keep-alive connection
	// goroutines linger until the pool drops them), then check nothing is
	// stuck.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after cancel; backoff sleeper leaked", before, runtime.NumGoroutine())
}

// bodyCloseSignal wraps a transport and signals on closed (without
// blocking) each time a response body it returned is closed: the
// attempt that read it is over.
type bodyCloseSignal struct {
	next   http.RoundTripper
	closed chan struct{}
}

func (s bodyCloseSignal) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.next.RoundTrip(req)
	if err == nil {
		resp.Body = signalingBody{ReadCloser: resp.Body, closed: s.closed}
	}
	return resp, err
}

type signalingBody struct {
	io.ReadCloser
	closed chan struct{}
}

func (b signalingBody) Close() error {
	err := b.ReadCloser.Close()
	select {
	case b.closed <- struct{}{}:
	default:
	}
	return err
}

// TestPerRequestTimeout pins WithTimeout: a hanging server fails the
// attempt at the configured deadline, and with retry each attempt gets
// a fresh budget.
func TestPerRequestTimeout(t *testing.T) {
	var calls atomic.Int32
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		select {
		case <-block:
		case <-req.Context().Done():
		}
	}))
	defer srv.Close()

	cli := New(srv.URL, WithHTTPClient(srv.Client()), WithTimeout(30*time.Millisecond))
	start := time.Now()
	_, err := cli.Stats(context.Background())
	if err == nil {
		t.Fatal("Stats succeeded against a hanging server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out call took %v", elapsed)
	}

	// With retry: the per-attempt deadline is retryable, so the server
	// sees 1+retries attempts.
	cli2 := New(srv.URL, WithHTTPClient(srv.Client()),
		WithTimeout(20*time.Millisecond), WithRetry(2, time.Millisecond))
	calls.Store(0)
	if _, err := cli2.Stats(context.Background()); err == nil {
		t.Fatal("Stats succeeded against a hanging server")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (per-attempt timeouts retry)", got)
	}
}

// TestReady drives the Ready probe across the readiness lifecycle and
// against a dead server.
func TestReady(t *testing.T) {
	ready := reefhttp.NewReadiness()
	dep := nopDeployment{}
	srv := httptest.NewServer(reefhttp.NewHandler(dep, nil,
		reefhttp.WithReadiness(ready), reefhttp.WithNodeID("n7")))
	defer srv.Close()
	cli := New(srv.URL, WithHTTPClient(srv.Client()))
	ctx := context.Background()

	resp, err := cli.Ready(ctx)
	if err == nil || resp.Status != reefhttp.ReadyStarting {
		t.Fatalf("Ready while starting = (%+v, %v), want starting + error", resp, err)
	}
	ready.SetReady()
	resp, err = cli.Ready(ctx)
	if err != nil || resp.Status != reefhttp.ReadyOK || resp.Node != "n7" {
		t.Fatalf("Ready when ready = (%+v, %v), want ready from n7", resp, err)
	}
	ready.SetDraining()
	resp, err = cli.Ready(ctx)
	if err == nil || resp.Status != reefhttp.ReadyDraining {
		t.Fatalf("Ready while draining = (%+v, %v), want draining + error", resp, err)
	}

	srv.Close()
	if resp, err := cli.Ready(ctx); err == nil || resp.Status != "" {
		t.Fatalf("Ready against dead server = (%+v, %v), want empty status + error", resp, err)
	}
}

// nopDeployment is the minimal Deployment for handler-only tests.
type nopDeployment struct{}

func (nopDeployment) IngestClicks(context.Context, []reef.Click) (int, error) { return 0, nil }
func (nopDeployment) PublishEvent(context.Context, reef.Event) (int, error)   { return 0, nil }
func (nopDeployment) PublishBatch(context.Context, []reef.Event) (int, error) { return 0, nil }
func (nopDeployment) Subscriptions(context.Context, string) ([]reef.Subscription, error) {
	return nil, nil
}
func (nopDeployment) Subscribe(context.Context, string, string, ...reef.SubscribeOption) (reef.Subscription, error) {
	return reef.Subscription{}, nil
}
func (nopDeployment) Unsubscribe(context.Context, string, string) error { return nil }
func (nopDeployment) Recommendations(context.Context, string) ([]reef.Recommendation, error) {
	return nil, nil
}
func (nopDeployment) AcceptRecommendation(context.Context, string, string) error { return nil }
func (nopDeployment) RejectRecommendation(context.Context, string, string) error { return nil }
func (nopDeployment) Stats(context.Context) (reef.Stats, error)                  { return reef.Stats{}, nil }
func (nopDeployment) Close() error                                               { return nil }
