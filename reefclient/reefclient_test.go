package reefclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/replication"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/reefhttp"
)

var t0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

// newServer stands up a real centralized deployment behind the REST
// surface and returns a client for it.
func newServer(t *testing.T, seed int64) (*Client, *reef.Centralized, *websim.Web) {
	t.Helper()
	model := topics.NewModel(seed, 6, 25, 30)
	wcfg := websim.DefaultConfig(seed, t0)
	wcfg.NumContentServers = 30
	wcfg.NumAdServers = 10
	wcfg.NumSpamServers = 2
	wcfg.NumMultimediaServers = 1
	wcfg.FeedProb = 0.6
	web := websim.Generate(wcfg, model)
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithPollInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	ts := httptest.NewServer(reefhttp.NewHandler(dep, nil))
	t.Cleanup(ts.Close)
	return New(ts.URL, WithHTTPClient(ts.Client())), dep, web
}

// TestClientStorageRoundTrip exercises the Persister surface through the
// SDK against a file-backed deployment: storage info reports the backend,
// a forced snapshot advances the generation, and a memory-backed server
// answers the same calls without error.
func TestClientStorageRoundTrip(t *testing.T) {
	ctx := context.Background()
	model := topics.NewModel(31, 4, 10, 12)
	wcfg := websim.DefaultConfig(31, t0)
	wcfg.NumContentServers = 6
	web := websim.Generate(wcfg, model)
	dep, err := reef.NewCentralized(
		reef.WithFetcher(web),
		reef.WithDataDir(t.TempDir()),
		reef.WithSyncPolicy(reef.SyncAlways),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	ts := httptest.NewServer(reefhttp.NewHandler(dep, nil))
	t.Cleanup(ts.Close)
	cli := New(ts.URL, WithHTTPClient(ts.Client()))

	info, err := cli.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "file" || info.Sync != "always" {
		t.Fatalf("StorageInfo = %+v, want file backend with always sync", info)
	}
	if _, err := cli.IngestClicks(ctx, []reef.Click{{User: "u", URL: "http://a.test/p", At: t0}}); err != nil {
		t.Fatal(err)
	}
	after, err := cli.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != info.Generation+1 || after.Snapshots == 0 {
		t.Fatalf("Snapshot = %+v, want generation %d", after, info.Generation+1)
	}
	if after.WALRecords != 0 {
		t.Errorf("WAL records after snapshot = %d, want 0", after.WALRecords)
	}

	// The same calls against a memory-backed deployment stay usable.
	memCli, _, _ := newServer(t, 32)
	memInfo, err := memCli.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if memInfo.Backend != "memory" {
		t.Errorf("memory deployment backend = %q", memInfo.Backend)
	}
}

// feedHostPage returns a page URL on a content server that hosts feeds.
func feedHostPage(t *testing.T, web *websim.Web) (string, *websim.Server) {
	t.Helper()
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for _, p := range s.Pages {
			return s.URL(p.Path), s
		}
	}
	t.Fatal("no feed-hosting content server")
	return "", nil
}

// serverFeedURL returns one feed URL hosted by the server.
func serverFeedURL(srv *websim.Server) string {
	for path := range srv.Feeds {
		return srv.URL(path)
	}
	return ""
}

// TestClientRoundTrip drives the acceptance flow end to end over the
// wire: clicks → pipeline → recommendations → accept → subscription.
func TestClientRoundTrip(t *testing.T) {
	ctx := context.Background()
	client, dep, web := newServer(t, 1)
	pageURL, _ := feedHostPage(t, web)

	n, err := client.IngestClicks(ctx, []reef.Click{{User: "u1", URL: pageURL, At: t0}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("accepted = %d", n)
	}

	dep.RunPipeline(t0.Add(time.Hour))

	recs, err := client.Recommendations(ctx, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations over HTTP")
	}
	rec := recs[0]
	if rec.Kind != reef.KindSubscribeFeed || rec.FeedURL == "" || rec.Filter == "" || rec.ID == "" {
		t.Fatalf("rec = %+v", rec)
	}

	// Listing again does not consume: the same IDs come back.
	again, err := client.Recommendations(ctx, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) || again[0].ID != rec.ID {
		t.Fatalf("recommendations not stable: %+v vs %+v", again, recs)
	}

	if err := client.AcceptRecommendation(ctx, "u1", rec.ID); err != nil {
		t.Fatal(err)
	}
	subs, err := client.Subscriptions(ctx, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].FeedURL != rec.FeedURL {
		t.Fatalf("subscriptions = %+v", subs)
	}

	// Accepting again: the recommendation is gone.
	err = client.AcceptRecommendation(ctx, "u1", rec.ID)
	if !errors.Is(err, reef.ErrNotFound) {
		t.Fatalf("second accept = %v, want ErrNotFound", err)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["clicks_stored"] != 1 {
		t.Errorf("clicks_stored = %v", stats["clicks_stored"])
	}
}

func TestClientSubscriptionCRUD(t *testing.T) {
	ctx := context.Background()
	client, _, web := newServer(t, 2)
	_, srv := feedHostPage(t, web)
	feedURL := serverFeedURL(srv)

	sub, err := client.Subscribe(ctx, "u2", feedURL)
	if err != nil {
		t.Fatal(err)
	}
	if sub.FeedURL != feedURL || sub.Kind != reef.KindSubscribeFeed {
		t.Fatalf("sub = %+v", sub)
	}
	subs, err := client.Subscriptions(ctx, "u2")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].ID != feedURL {
		t.Fatalf("subs = %+v", subs)
	}
	if err := client.Unsubscribe(ctx, "u2", feedURL); err != nil {
		t.Fatal(err)
	}
	subs, err = client.Subscriptions(ctx, "u2")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Fatalf("subs after unsubscribe = %+v", subs)
	}
	// Deleting again is a 404 that maps back to the sentinel.
	err = client.Unsubscribe(ctx, "u2", feedURL)
	if !errors.Is(err, reef.ErrNotFound) {
		t.Fatalf("double unsubscribe = %v, want ErrNotFound", err)
	}
}

func TestClientPublishEventDelivery(t *testing.T) {
	ctx := context.Background()
	client, _, web := newServer(t, 3)
	_, srv := feedHostPage(t, web)
	feedURL := serverFeedURL(srv)

	if _, err := client.Subscribe(ctx, "u3", feedURL); err != nil {
		t.Fatal(err)
	}
	delivered, err := client.PublishEvent(ctx, reef.Event{
		Source: "test",
		Attrs: map[string]string{
			"type":  "feed-item",
			"feed":  feedURL,
			"title": "hello",
			"link":  srv.URL("/story/1.html"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	// No attributes → invalid_argument over the wire.
	_, err = client.PublishEvent(ctx, reef.Event{Source: "test"})
	if !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("empty event = %v, want ErrInvalidArgument", err)
	}
}

func TestClientPublishBatch(t *testing.T) {
	ctx := context.Background()
	client, _, web := newServer(t, 9)
	_, srv := feedHostPage(t, web)
	feedURL := serverFeedURL(srv)

	if _, err := client.Subscribe(ctx, "u9", feedURL); err != nil {
		t.Fatal(err)
	}
	item := func() reef.Event {
		return reef.Event{
			Source: "test",
			Attrs: map[string]string{
				"type": "feed-item",
				"feed": feedURL,
				"link": srv.URL("/story/batch.html"),
			},
		}
	}
	delivered, err := client.PublishBatch(ctx, []reef.Event{item(), item(), item()})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Fatalf("batch delivered = %d, want 3", delivered)
	}

	// An empty batch is a no-op over the wire, like in-process.
	if n, err := client.PublishBatch(ctx, nil); err != nil || n != 0 {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", n, err)
	}

	// One bad event rejects the whole batch before anything publishes.
	_, err = client.PublishBatch(ctx, []reef.Event{item(), {Source: "test"}})
	if !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("bad batch = %v, want ErrInvalidArgument", err)
	}
}

func TestClientRejectRecommendation(t *testing.T) {
	ctx := context.Background()
	client, dep, web := newServer(t, 4)
	pageURL, _ := feedHostPage(t, web)
	if _, err := client.IngestClicks(ctx, []reef.Click{{User: "u4", URL: pageURL, At: t0}}); err != nil {
		t.Fatal(err)
	}
	dep.RunPipeline(t0.Add(time.Hour))
	recs, err := client.Recommendations(ctx, "u4")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if err := client.RejectRecommendation(ctx, "u4", recs[0].ID); err != nil {
		t.Fatal(err)
	}
	subs, err := client.Subscriptions(ctx, "u4")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Fatalf("rejected recommendation still placed a subscription: %+v", subs)
	}
	recs, err = client.Recommendations(ctx, "u4")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == "r1" {
			t.Fatalf("rejected recommendation still pending: %+v", r)
		}
	}
}

// TestErrorEnvelope checks the wire shape of errors: JSON envelope,
// Content-Type, status codes, Allow header on 405s.
func TestErrorEnvelope(t *testing.T) {
	client, _, _ := newServer(t, 5)
	hc := client.hc

	checkEnvelope := func(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		var body reefhttp.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		if body.Error.Code != wantCode {
			t.Errorf("code = %q, want %q", body.Error.Code, wantCode)
		}
		if body.Error.Message == "" {
			t.Error("empty error message")
		}
	}

	// Wrong method on every route.
	for path, method := range map[string]string{
		"/v1/clicks":                    http.MethodGet,
		"/v1/events":                    http.MethodDelete,
		"/v1/stats":                     http.MethodPost,
		"/v1/recommendations":           http.MethodPut,
		"/v1/recommendations/r1/accept": http.MethodGet,
		"/v1/recommendations/r1/reject": http.MethodGet,
		"/v1/users/u/subscriptions":     http.MethodPost,
	} {
		req, _ := http.NewRequest(method, client.base+path, nil)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Allow") == "" {
			t.Errorf("%s %s: missing Allow header", method, path)
		}
		checkEnvelope(t, resp, http.StatusMethodNotAllowed, reefhttp.CodeMethodNotAllowed)
	}

	// Unknown paths.
	for _, path := range []string{"/v1/nope", "/v2/clicks", "/v1/users/u/other"} {
		resp, err := hc.Get(client.base + path)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, resp, http.StatusNotFound, reefhttp.CodeNotFound)
	}

	// Bad JSON.
	resp, err := hc.Post(client.base+"/v1/clicks", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusBadRequest, reefhttp.CodeInvalidArgument)

	// Empty batch: a no-op success, matching in-process deployments.
	resp, err = hc.Post(client.base+"/v1/clicks", "application/json", strings.NewReader(`{"clicks":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("empty batch status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing user parameter.
	resp, err = hc.Get(client.base + "/v1/recommendations")
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusBadRequest, reefhttp.CodeInvalidArgument)

	// Missing feed parameter on DELETE.
	req, _ := http.NewRequest(http.MethodDelete, client.base+"/v1/users/u/subscriptions", nil)
	resp, err = hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusBadRequest, reefhttp.CodeInvalidArgument)
}

// TestClientEscapedUser round-trips a user ID containing '/' — the
// client path-escapes it and the server must not let the %2F change the
// route shape.
func TestClientEscapedUser(t *testing.T) {
	ctx := context.Background()
	client, _, web := newServer(t, 10)
	_, srv := feedHostPage(t, web)
	feedURL := serverFeedURL(srv)

	const user = "org/alice"
	if _, err := client.Subscribe(ctx, user, feedURL); err != nil {
		t.Fatal(err)
	}
	subs, err := client.Subscriptions(ctx, user)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].User != user {
		t.Fatalf("subs for %q = %+v", user, subs)
	}
}

// TestClientSentinelMapping checks errors.Is across the wire for each
// envelope code the client maps.
func TestClientSentinelMapping(t *testing.T) {
	ctx := context.Background()
	client, dep, _ := newServer(t, 6)

	if err := client.AcceptRecommendation(ctx, "ghost", "r99"); !errors.Is(err, reef.ErrNotFound) {
		t.Errorf("accept unknown = %v, want ErrNotFound", err)
	}
	if _, err := client.Subscribe(ctx, "u", "not-a-url"); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("bad feed URL = %v, want ErrInvalidArgument", err)
	}
	var apiErr *APIError
	err := client.Unsubscribe(ctx, "ghost", "http://x.test/feed.xml")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unsubscribe unknown = %v", err)
	}

	// A closed deployment surfaces as ErrClosed through the 503 mapping.
	_ = dep.Close()
	if _, err := client.Stats(ctx); !errors.Is(err, reef.ErrClosed) {
		t.Errorf("stats after close = %v, want ErrClosed", err)
	}
}

// TestClientUnreachable covers transport-level failure.
func TestClientUnreachable(t *testing.T) {
	client := New("http://127.0.0.1:1") // nothing listens
	_, err := client.IngestClicks(context.Background(), []reef.Click{{User: "u", URL: "http://a.test/"}})
	if err == nil {
		t.Error("unreachable server accepted clicks")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Errorf("transport failure produced APIError: %v", err)
	}
}

// TestClientHealth round-trips the healthz probe through the SDK.
func TestClientHealth(t *testing.T) {
	ctx := context.Background()
	client, dep, _ := newServer(t, 37)
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shards != 1 || h.Backend != "memory" {
		t.Errorf("Health = %+v, want ok/1/memory", h)
	}
	_ = dep.Close()
	if _, err := client.Health(ctx); !errors.Is(err, reef.ErrClosed) {
		t.Errorf("Health after close: error = %v, want ErrClosed", err)
	}
}

// TestClientReplicationStatus pins the admin replication fetch: a
// server with a manager answers the status, one without answers
// reef.ErrUnsupported.
func TestClientReplicationStatus(t *testing.T) {
	ctx := context.Background()
	client, _, _ := newServer(t, 53)
	if _, err := client.ReplicationStatus(ctx); !errors.Is(err, reef.ErrUnsupported) {
		t.Fatalf("status without replication = %v, want ErrUnsupported", err)
	}

	mgr, err := replication.New(replication.Options{
		Self: "a",
		Nodes: []replication.Node{
			{ID: "a", BaseURL: "http://unused.test"},
			{ID: "b", BaseURL: "http://unused.test"},
		},
		Replicas: 1,
		Applier:  noopApplier{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	model := topics.NewModel(53, 4, 10, 12)
	wcfg := websim.DefaultConfig(53, t0)
	wcfg.NumContentServers = 6
	web := websim.Generate(wcfg, model)
	dep, err := reef.NewCentralized(reef.WithFetcher(web), reef.WithPollInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	ts := httptest.NewServer(reefhttp.NewHandler(dep, nil, reefhttp.WithReplication(mgr)))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	st, err := c.ReplicationStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Self != "a" || st.Replicas != 1 || len(st.Peers) != 1 {
		t.Fatalf("replication status = %+v, want self a with one peer", st)
	}
}

// noopApplier satisfies replication.Applier for status tests.
type noopApplier struct{}

func (noopApplier) ApplyReplicated([]durable.Record) error                   { return nil }
func (noopApplier) ApplyReplicatedCut([]durable.Record) error                { return nil }
func (noopApplier) CaptureReplicationState(func()) ([]durable.Record, error) { return nil, nil }
func (noopApplier) ReplicationPositions() []durable.ReplPosition             { return nil }
