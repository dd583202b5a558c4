package reefhttp_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/reefhttp"
)

// newTestServer mounts the handler over a durable centralized deployment
// (data dir backed, so the admin endpoints have a real backend).
func newTestServer(t *testing.T, opts ...reefhttp.HandlerOption) (*httptest.Server, *reef.Centralized) {
	t.Helper()
	model := topics.NewModel(21, 4, 10, 12)
	wcfg := websim.DefaultConfig(21, time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC))
	wcfg.NumContentServers = 8
	wcfg.NumAdServers = 2
	wcfg.NumSpamServers = 1
	wcfg.NumMultimediaServers = 1
	web := websim.Generate(wcfg, model)
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	srv := httptest.NewServer(reefhttp.NewHandler(dep, nil, opts...))
	t.Cleanup(srv.Close)
	return srv, dep
}

// do issues one request and decodes the error envelope (if any).
func do(t *testing.T, method, url, body string) (*http.Response, reefhttp.ErrorBody, string) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var envelope reefhttp.ErrorBody
	_ = json.Unmarshal(data, &envelope)
	return resp, envelope, string(data)
}

// TestHandlerErrorPaths is the table-driven sweep over every handler's
// failure envelopes: wrong method, bad JSON, invalid arguments, unknown
// users and IDs, and the admin endpoints — paths the happy-path client
// round-trip tests never touch.
func TestHandlerErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t)

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantAllow  string
	}{
		{"unknown path", "GET", "/v1/nope", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"path outside v1", "GET", "/v2/stats", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"deep unknown path", "GET", "/v1/users/u/sidebars", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		// A path reaches a handler only with its route's exact shape: the
		// same fixed words in one segment, in the wildcard's place or one
		// segment short are unknown paths (one short once panicked).
		{"route words in one segment", "POST", "/v1/admin.snapshot", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"decision words in one segment", "POST", "/v1/recommendations.accept", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"subscription words in one segment", "GET", "/v1/subscriptions.ack", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"user words in one segment", "GET", "/v1/users.subscriptions", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"admin route with a wildcard", "GET", "/v1/admin/x/trace", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"replication route with a wildcard", "POST", "/v1/replication/x/records", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"ack without its subscription", "POST", "/v1/subscriptions/ack", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"events without their subscription", "GET", "/v1/subscriptions/events", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"decision without its recommendation", "POST", "/v1/recommendations/accept", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"subscriptions without their user", "GET", "/v1/users/subscriptions", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"subscribe without a user", "PUT", "/v1/users/subscriptions", `{"feed_url":"http://f.test/a.xml"}`, http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"subscriptions one segment long", "GET", "/v1/users/u/subscriptions/x", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},

		{"clicks wrong method", "GET", "/v1/clicks", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "POST"},
		{"events wrong method", "DELETE", "/v1/events", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "POST"},
		{"batch wrong method", "GET", "/v1/events:batch", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "POST"},
		{"stats wrong method", "POST", "/v1/stats", "{}", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "GET"},
		{"recommendations wrong method", "POST", "/v1/recommendations", "{}", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "GET"},
		{"subscriptions wrong method", "POST", "/v1/users/u/subscriptions", "{}", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "GET, PUT, DELETE"},
		{"storage wrong method", "POST", "/v1/admin/storage", "{}", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "GET"},
		{"snapshot wrong method", "GET", "/v1/admin/snapshot", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "POST"},
		{"decision wrong method", "GET", "/v1/recommendations/r1/accept", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "POST"},

		{"clicks bad JSON", "POST", "/v1/clicks", "{not json", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events bad JSON", "POST", "/v1/events", "[", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"batch bad JSON", "POST", "/v1/events:batch", "nope", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"subscribe bad JSON", "PUT", "/v1/users/u/subscriptions", "{", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"decision bad JSON", "POST", "/v1/recommendations/r1/accept", "{", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},

		{"click with empty user", "POST", "/v1/clicks", `{"clicks":[{"user":"","url":"http://a.test/"}]}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"click with empty URL", "POST", "/v1/clicks", `{"clicks":[{"user":"u","url":""}]}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"event without attributes", "POST", "/v1/events", `{"attrs":{}}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"subscribe bad scheme", "PUT", "/v1/users/u/subscriptions", `{"feed_url":"ftp://bad"}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"unsubscribe missing feed param", "DELETE", "/v1/users/u/subscriptions", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"recommendations missing user", "GET", "/v1/recommendations", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"blank user path segment", "GET", "/v1/users/%20/subscriptions", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},

		{"unsubscribe unknown user", "DELETE", "/v1/users/ghost/subscriptions?feed=http%3A%2F%2Ff.test%2Fa.xml", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"accept unknown recommendation", "POST", "/v1/recommendations/r999/accept", `{"user":"u"}`, http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"reject unknown recommendation", "POST", "/v1/recommendations/r999/reject", `{"user":"u"}`, http.StatusNotFound, reefhttp.CodeNotFound, ""},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, envelope, raw := do(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if envelope.Error.Code != tc.wantCode {
				t.Errorf("envelope code = %q, want %q (body %s)", envelope.Error.Code, tc.wantCode, raw)
			}
			if envelope.Error.Message == "" {
				t.Error("envelope has no message")
			}
			if tc.wantAllow != "" {
				if allow := resp.Header.Get("Allow"); allow != tc.wantAllow {
					t.Errorf("Allow = %q, want %q", allow, tc.wantAllow)
				}
			}
		})
	}
}

// TestAdminEndpoints drives the happy path of the durability admin
// surface: storage reporting and forced snapshots over a file-backed
// deployment.
func TestAdminEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, _, raw := do(t, "GET", srv.URL+"/v1/admin/storage", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET storage = %d (%s)", resp.StatusCode, raw)
	}
	var storage reefhttp.StorageResponse
	if err := json.Unmarshal([]byte(raw), &storage); err != nil {
		t.Fatal(err)
	}
	if storage.Storage.Backend != "file" || storage.Storage.Sync == "" {
		t.Fatalf("storage = %+v, want a file backend with a sync policy", storage.Storage)
	}
	gen := storage.Storage.Generation

	resp, _, raw = do(t, "POST", srv.URL+"/v1/admin/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST snapshot = %d (%s)", resp.StatusCode, raw)
	}
	if err := json.Unmarshal([]byte(raw), &storage); err != nil {
		t.Fatal(err)
	}
	if storage.Storage.Generation != gen+1 || storage.Storage.Snapshots == 0 {
		t.Fatalf("post-snapshot storage = %+v, want generation %d", storage.Storage, gen+1)
	}
	if storage.Storage.WALRecords != 0 {
		t.Errorf("WAL not reset by snapshot: %d records", storage.Storage.WALRecords)
	}
}

// bareDeployment implements reef.Deployment but not reef.Persister; the
// admin endpoints must answer 501 for it. Only the admin routes are hit,
// so the embedded nil interface is never called.
type bareDeployment struct{ reef.Deployment }

// TestAdminUnsupported pins the 501 envelope for deployments without a
// persistence surface.
func TestAdminUnsupported(t *testing.T) {
	srv := httptest.NewServer(reefhttp.NewHandler(bareDeployment{}, nil))
	defer srv.Close()
	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/admin/storage"},
		{"POST", "/v1/admin/snapshot"},
	} {
		resp, envelope, raw := do(t, tc.method, srv.URL+tc.path, "")
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501 (%s)", tc.method, tc.path, resp.StatusCode, raw)
		}
		if envelope.Error.Code != reefhttp.CodeUnsupported {
			t.Errorf("%s %s code = %q, want unsupported", tc.method, tc.path, envelope.Error.Code)
		}
	}
}

// TestDeliveryEndpointErrorPaths is the table-driven sweep over the
// reliable-delivery routes' failure envelopes: wrong methods, bad JSON,
// missing parameters, unknown subscriptions, and — the typed config
// error — an ack against a best-effort subscription.
func TestDeliveryEndpointErrorPaths(t *testing.T) {
	srv, dep := newTestServer(t)
	ctx := context.Background()
	const bestEffort = "http://f.test/plain.xml"
	const reliableFeed = "http://f.test/reliable.xml"
	if _, err := dep.Subscribe(ctx, "u", bestEffort); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Subscribe(ctx, "u", reliableFeed, reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
		t.Fatal(err)
	}
	enc := url.PathEscape(bestEffort)
	encReliable := url.PathEscape(reliableFeed)

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantAllow  string
	}{
		{"ack wrong method", "GET", "/v1/subscriptions/" + encReliable + "/ack", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "POST"},
		{"events wrong method", "POST", "/v1/subscriptions/" + encReliable + "/events", "{}", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "GET"},
		{"deadletter wrong method", "DELETE", "/v1/admin/deadletter", "", http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed, "GET, POST"},

		{"ack bad JSON", "POST", "/v1/subscriptions/" + encReliable + "/ack", "{nope", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"deadletter drain bad JSON", "POST", "/v1/admin/deadletter", "[", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events missing user", "GET", "/v1/subscriptions/" + encReliable + "/events", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events bad max", "GET", "/v1/subscriptions/" + encReliable + "/events?user=u&max=lots", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events bad wait", "GET", "/v1/subscriptions/" + encReliable + "/events?user=u&wait=soon", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events bare-number wait", "GET", "/v1/subscriptions/" + encReliable + "/events?user=u&wait=5", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events negative wait", "GET", "/v1/subscriptions/" + encReliable + "/events?user=u&wait=-1s", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events oversized wait", "GET", "/v1/subscriptions/" + encReliable + "/events?user=u&wait=31s", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"deadletter missing user", "GET", "/v1/admin/deadletter", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"deadletter drain missing user", "POST", "/v1/admin/deadletter", "{}", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"blank subscription segment", "POST", "/v1/subscriptions/%20/ack", `{"user":"u","seq":1}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},

		{"ack unknown subscription", "POST", "/v1/subscriptions/ghost/ack", `{"user":"u","seq":1}`, http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"events unknown subscription", "GET", "/v1/subscriptions/ghost/events?user=u", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},
		{"deadletter unknown subscription", "GET", "/v1/admin/deadletter?user=u&subscription=ghost", "", http.StatusNotFound, reefhttp.CodeNotFound, ""},

		{"ack on best-effort subscription", "POST", "/v1/subscriptions/" + enc + "/ack", `{"user":"u","seq":1}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"events on best-effort subscription", "GET", "/v1/subscriptions/" + enc + "/events?user=u", "", http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
		{"ack beyond delivered", "POST", "/v1/subscriptions/" + encReliable + "/ack", `{"user":"u","seq":99}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},

		{"subscribe with unknown guarantee", "PUT", "/v1/users/u/subscriptions", `{"feed_url":"http://f.test/x.xml","delivery":{"guarantee":"exactly_once"}}`, http.StatusBadRequest, reefhttp.CodeInvalidArgument, ""},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, envelope, raw := do(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if envelope.Error.Code != tc.wantCode {
				t.Errorf("envelope code = %q, want %q (body %s)", envelope.Error.Code, tc.wantCode, raw)
			}
			if envelope.Error.Message == "" {
				t.Error("envelope has no message")
			}
			if tc.wantAllow != "" {
				if allow := resp.Header.Get("Allow"); allow != tc.wantAllow {
					t.Errorf("Allow = %q, want %q", allow, tc.wantAllow)
				}
			}
		})
	}

	// The best-effort rejection carries the rich config-error text, so an
	// operator reading the envelope knows the fix.
	_, envelope, _ := do(t, "POST", srv.URL+"/v1/subscriptions/"+enc+"/ack", `{"user":"u","seq":1}`)
	if !strings.Contains(envelope.Error.Message, "best-effort") || !strings.Contains(envelope.Error.Message, "AtLeastOnce") {
		t.Errorf("best-effort ack message = %q, want tier explanation with the WithGuarantee fix", envelope.Error.Message)
	}
}

// TestFetchEventsLongPoll pins the bounded long-poll on the fetch
// endpoint: an expired wait returns an empty 200 (not an error), and a
// publish mid-wait wakes the parked request through the queue's notify
// hook well before the bound.
func TestFetchEventsLongPoll(t *testing.T) {
	srv, dep := newTestServer(t)
	ctx := context.Background()
	const feed = "http://f.test/poll.xml"
	if _, err := dep.Subscribe(ctx, "u", feed, reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
		t.Fatal(err)
	}
	enc := url.PathEscape(feed)

	// Empty queue: the request parks for the full wait, then answers
	// with zero events.
	start := time.Now()
	resp, _, raw := do(t, "GET", srv.URL+"/v1/subscriptions/"+enc+"/events?user=u&wait=150ms", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty long-poll status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var out reefhttp.DeliveredResponse
	if err := json.Unmarshal([]byte(raw), &out); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	if len(out.Events) != 0 {
		t.Fatalf("empty long-poll returned %d events", len(out.Events))
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("empty long-poll answered after %v, want it parked near the 150ms bound", elapsed)
	}

	// Publish mid-wait: the notify hook must wake the poll long before
	// the 10s bound.
	go func() {
		time.Sleep(100 * time.Millisecond)
		_, _ = dep.PublishEvent(ctx, reef.Event{Attrs: map[string]string{
			"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/i",
		}})
	}()
	start = time.Now()
	resp, _, raw = do(t, "GET", srv.URL+"/v1/subscriptions/"+enc+"/events?user=u&wait=10s", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	out = reefhttp.DeliveredResponse{}
	if err := json.Unmarshal([]byte(raw), &out); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	if len(out.Events) == 0 {
		t.Fatal("long-poll returned no events after a mid-wait publish")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("long-poll took %v, want a prompt wake on the publish", elapsed)
	}
}

// TestDeliveryUnsupported pins the 501 envelope for deployments without
// a reliable-delivery surface.
func TestDeliveryUnsupported(t *testing.T) {
	srv := httptest.NewServer(reefhttp.NewHandler(bareDeployment{}, nil))
	defer srv.Close()
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/subscriptions/s/events?user=u", ""},
		{"POST", "/v1/subscriptions/s/ack", `{"user":"u","seq":1}`},
		{"GET", "/v1/admin/deadletter?user=u", ""},
		{"POST", "/v1/admin/deadletter", `{"user":"u"}`},
	} {
		resp, envelope, raw := do(t, tc.method, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501 (%s)", tc.method, tc.path, resp.StatusCode, raw)
		}
		if envelope.Error.Code != reefhttp.CodeUnsupported {
			t.Errorf("%s %s code = %q, want unsupported", tc.method, tc.path, envelope.Error.Code)
		}
	}
}

// TestReadyz pins the readiness endpoint, table-driven over the gate's
// lifecycle: starting (503) -> ready (200) -> draining (503), the
// no-gate fallback (mirrors liveness), node identity stamping, and the
// wrong-method envelope. Unlike every other route, readyz keeps the
// ReadyResponse body shape at 503 so probers can read the status.
func TestReadyz(t *testing.T) {
	model := topics.NewModel(41, 4, 10, 12)
	wcfg := websim.DefaultConfig(41, time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC))
	wcfg.NumContentServers = 4
	web := websim.Generate(wcfg, model)
	open := func(t *testing.T) *reef.Centralized {
		t.Helper()
		dep, err := reef.NewCentralized(reef.WithFetcher(web))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dep.Close() })
		return dep
	}

	for _, tc := range []struct {
		name       string
		opts       func(r *reefhttp.Readiness) []reefhttp.HandlerOption
		arm        func(r *reefhttp.Readiness)
		closeDep   bool
		method     string
		wantStatus int
		wantBody   string // ReadyResponse.Status; "" = expect error envelope
		wantNode   string
	}{
		{
			name: "gate starting",
			opts: func(r *reefhttp.Readiness) []reefhttp.HandlerOption {
				return []reefhttp.HandlerOption{reefhttp.WithReadiness(r)}
			},
			arm:        func(r *reefhttp.Readiness) {},
			method:     "GET",
			wantStatus: http.StatusServiceUnavailable,
			wantBody:   reefhttp.ReadyStarting,
		},
		{
			name: "gate ready",
			opts: func(r *reefhttp.Readiness) []reefhttp.HandlerOption {
				return []reefhttp.HandlerOption{reefhttp.WithReadiness(r)}
			},
			arm:        func(r *reefhttp.Readiness) { r.SetReady() },
			method:     "GET",
			wantStatus: http.StatusOK,
			wantBody:   reefhttp.ReadyOK,
		},
		{
			name: "gate draining",
			opts: func(r *reefhttp.Readiness) []reefhttp.HandlerOption {
				return []reefhttp.HandlerOption{reefhttp.WithReadiness(r)}
			},
			arm:        func(r *reefhttp.Readiness) { r.SetReady(); r.SetDraining() },
			method:     "GET",
			wantStatus: http.StatusServiceUnavailable,
			wantBody:   reefhttp.ReadyDraining,
		},
		{
			name: "gate ready with node id",
			opts: func(r *reefhttp.Readiness) []reefhttp.HandlerOption {
				return []reefhttp.HandlerOption{reefhttp.WithReadiness(r), reefhttp.WithNodeID("n1")}
			},
			arm:        func(r *reefhttp.Readiness) { r.SetReady() },
			method:     "GET",
			wantStatus: http.StatusOK,
			wantBody:   reefhttp.ReadyOK,
			wantNode:   "n1",
		},
		{
			name:       "no gate mirrors liveness",
			opts:       func(r *reefhttp.Readiness) []reefhttp.HandlerOption { return nil },
			arm:        func(r *reefhttp.Readiness) {},
			method:     "GET",
			wantStatus: http.StatusOK,
			wantBody:   reefhttp.ReadyOK,
		},
		{
			name:       "no gate closed deployment",
			opts:       func(r *reefhttp.Readiness) []reefhttp.HandlerOption { return nil },
			arm:        func(r *reefhttp.Readiness) {},
			closeDep:   true,
			method:     "GET",
			wantStatus: http.StatusServiceUnavailable,
			wantBody:   reefhttp.ReadyDraining,
		},
		{
			name:       "wrong method",
			opts:       func(r *reefhttp.Readiness) []reefhttp.HandlerOption { return nil },
			arm:        func(r *reefhttp.Readiness) {},
			method:     "POST",
			wantStatus: http.StatusMethodNotAllowed,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep := open(t)
			if tc.closeDep {
				_ = dep.Close()
			}
			r := reefhttp.NewReadiness()
			tc.arm(r)
			srv := httptest.NewServer(reefhttp.NewHandler(dep, nil, tc.opts(r)...))
			t.Cleanup(srv.Close)
			resp, envelope, raw := do(t, tc.method, srv.URL+"/v1/readyz", "")
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("readyz = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.wantBody == "" {
				if envelope.Error.Code != reefhttp.CodeMethodNotAllowed {
					t.Errorf("error code = %q, want method_not_allowed", envelope.Error.Code)
				}
				return
			}
			var body reefhttp.ReadyResponse
			if err := json.Unmarshal([]byte(raw), &body); err != nil {
				t.Fatalf("decoding readyz body %q: %v", raw, err)
			}
			if body.Status != tc.wantBody {
				t.Errorf("readyz status = %q, want %q", body.Status, tc.wantBody)
			}
			if body.Node != tc.wantNode {
				t.Errorf("readyz node = %q, want %q", body.Node, tc.wantNode)
			}
		})
	}
}

// TestHealthz pins the liveness endpoint across deployment shapes:
// sharded file-backed, memory-backed, wrong method, and closed.
func TestHealthz(t *testing.T) {
	model := topics.NewModel(31, 4, 10, 12)
	wcfg := websim.DefaultConfig(31, time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC))
	wcfg.NumContentServers = 6
	wcfg.NumAdServers = 2
	web := websim.Generate(wcfg, model)
	open := func(t *testing.T, opts ...reef.Option) *reef.Centralized {
		t.Helper()
		dep, err := reef.NewCentralized(append([]reef.Option{reef.WithFetcher(web)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	for _, tc := range []struct {
		name        string
		dep         func(t *testing.T) *reef.Centralized
		method      string
		wantStatus  int
		wantShards  int
		wantBackend string
		wantCode    string
	}{
		{
			name: "sharded file-backed",
			dep: func(t *testing.T) *reef.Centralized {
				return open(t, reef.WithShards(3), reef.WithDataDir(t.TempDir()))
			},
			method:      "GET",
			wantStatus:  http.StatusOK,
			wantShards:  3,
			wantBackend: "file",
		},
		{
			name:        "memory single shard",
			dep:         func(t *testing.T) *reef.Centralized { return open(t) },
			method:      "GET",
			wantStatus:  http.StatusOK,
			wantShards:  1,
			wantBackend: "memory",
		},
		{
			name:       "wrong method",
			dep:        func(t *testing.T) *reef.Centralized { return open(t) },
			method:     "POST",
			wantStatus: http.StatusMethodNotAllowed,
			wantCode:   reefhttp.CodeMethodNotAllowed,
		},
		{
			name: "closed deployment",
			dep: func(t *testing.T) *reef.Centralized {
				dep := open(t)
				_ = dep.Close()
				return dep
			},
			method:     "GET",
			wantStatus: http.StatusServiceUnavailable,
			wantCode:   reefhttp.CodeUnavailable,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep := tc.dep(t)
			t.Cleanup(func() { _ = dep.Close() })
			srv := httptest.NewServer(reefhttp.NewHandler(dep, nil))
			t.Cleanup(srv.Close)
			resp, envelope, raw := do(t, tc.method, srv.URL+"/v1/healthz", "")
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("healthz = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.wantCode != "" {
				if envelope.Error.Code != tc.wantCode {
					t.Errorf("error code = %q, want %q", envelope.Error.Code, tc.wantCode)
				}
				return
			}
			var h reefhttp.HealthResponse
			if err := json.Unmarshal([]byte(raw), &h); err != nil {
				t.Fatalf("decoding healthz body %q: %v", raw, err)
			}
			if h.Status != "ok" || h.Shards != tc.wantShards || h.Backend != tc.wantBackend {
				t.Errorf("healthz = %+v, want status ok, %d shards, backend %q", h, tc.wantShards, tc.wantBackend)
			}
		})
	}

	// WithStreamAddr advertises the binary ingest listener in healthz.
	t.Run("stream addr advertised", func(t *testing.T) {
		dep := open(t)
		t.Cleanup(func() { _ = dep.Close() })
		srv := httptest.NewServer(reefhttp.NewHandler(dep, nil, reefhttp.WithStreamAddr("127.0.0.1:7071")))
		t.Cleanup(srv.Close)
		_, _, raw := do(t, "GET", srv.URL+"/v1/healthz", "")
		var h reefhttp.HealthResponse
		if err := json.Unmarshal([]byte(raw), &h); err != nil {
			t.Fatalf("decoding healthz body %q: %v", raw, err)
		}
		if h.StreamAddr != "127.0.0.1:7071" {
			t.Errorf("stream_addr = %q, want advertised listener", h.StreamAddr)
		}
	})
}
