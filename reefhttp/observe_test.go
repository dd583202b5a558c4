package reefhttp_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"reef/internal/metrics"
	"reef/internal/trace"
	"reef/reefhttp"
)

// TestMetricsEndpoint scrapes /v1/metrics and checks the exposition is
// well-formed Prometheus text: right Content-Type, every line either a
// comment or a "name value" sample, and both registry families (HTTP
// middleware) and the deployment's sampled families present.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	// A traced request first, so the middleware has something to report.
	resp, _, _ := do(t, "GET", srv.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}

	resp, _, body := do(t, "GET", srv.URL+"/v1/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != reefhttp.ContentTypeMetrics {
		t.Errorf("Content-Type = %q, want %q", ct, reefhttp.ContentTypeMetrics)
	}
	for _, want := range []string{
		"# TYPE " + metrics.ClicksStored.Name + " gauge",
		metrics.Shards.Name + " ",
		metrics.HTTPRequests.Name + `{class="2xx",route="stats"} 1`,
		metrics.HTTPRequestSeconds.Name + `_bucket{route="stats",le="+Inf"} 1`,
		metrics.HTTPInFlight.Name,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Broker stats are exported under their own families, but no
	// sequence ones.
	if !strings.Contains(body, metrics.BrokerPublished.Name+" ") || strings.Contains(body, "seq_") {
		t.Error("exposition lacks the broker's published counter or exports a broker seq_ series")
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestTraceMintEchoAndDump pins the trace lifecycle on one node: a
// request without X-Reef-Trace gets a minted ID echoed back, a request
// with the header keeps its ID, and /v1/admin/trace?trace= returns the
// span recorded under it.
func TestTraceMintEchoAndDump(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, _, _ := do(t, "GET", srv.URL+"/v1/stats", "")
	minted := resp.Header.Get(reefhttp.TraceHeader)
	if _, ok := trace.Parse(minted); !ok {
		t.Fatalf("no trace ID minted: header = %q", minted)
	}

	req, _ := http.NewRequest("GET", srv.URL+"/v1/stats", nil)
	want := trace.NewID()
	req.Header.Set(reefhttp.TraceHeader, want.String())
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(reefhttp.TraceHeader); got != want.String() {
		t.Fatalf("propagated trace echoed as %q, want %q", got, want)
	}

	resp, _, body := do(t, "GET", srv.URL+"/v1/admin/trace?trace="+want.String(), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace dump = %d: %s", resp.StatusCode, body)
	}
	var dump reefhttp.TraceResponse
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Op != "http.stats" || dump.Spans[0].Trace != want.String() {
		t.Fatalf("dump = %+v, want one http.stats span under %s", dump, want)
	}
	if dump.Total < 2 {
		t.Errorf("Total = %d, want >= 2 (minted + propagated)", dump.Total)
	}
}

// TestProbeRoutesNotTraced: scrape/probe endpoints must not mint IDs
// (they would wash real traces out of the ring), but still honor an
// explicitly attached one.
func TestProbeRoutesNotTraced(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/metrics", "/v1/admin/trace"} {
		resp, _, _ := do(t, "GET", srv.URL+path, "")
		if got := resp.Header.Get(reefhttp.TraceHeader); got != "" {
			t.Errorf("%s minted trace %q, probes must not", path, got)
		}
	}
	req, _ := http.NewRequest("GET", srv.URL+"/v1/healthz", nil)
	id := trace.NewID()
	req.Header.Set(reefhttp.TraceHeader, id.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(reefhttp.TraceHeader); got != id.String() {
		t.Errorf("healthz with explicit trace echoed %q, want %q", got, id)
	}
}

func TestTraceEndpointBadParams(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, q := range []string{"?trace=nothex", "?trace=" + strings.Repeat("0", 32), "?limit=-1", "?limit=x"} {
		resp, envelope, _ := do(t, "GET", srv.URL+"/v1/admin/trace"+q, "")
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != reefhttp.CodeInvalidArgument {
			t.Errorf("trace%s = (%d, %q), want 400 invalid_argument", q, resp.StatusCode, envelope.Error.Code)
		}
	}
}

// TestHealthVersionUptime: both probes carry the build version and an
// uptime measured from the configured start time.
func TestHealthVersionUptime(t *testing.T) {
	start := time.Now().Add(-time.Minute)
	srv, _ := newTestServer(t, reefhttp.WithStartTime(start))

	_, _, body := do(t, "GET", srv.URL+"/v1/healthz", "")
	var health reefhttp.HealthResponse
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Version == "" {
		t.Error("healthz has no version")
	}
	if health.UptimeSeconds < 59 {
		t.Errorf("healthz uptime = %v, want >= 59s", health.UptimeSeconds)
	}

	_, _, body = do(t, "GET", srv.URL+"/v1/readyz", "")
	var ready reefhttp.ReadyResponse
	if err := json.Unmarshal([]byte(body), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Version != health.Version || ready.UptimeSeconds < 59 {
		t.Errorf("readyz = (%q, %v), want version %q and uptime >= 59s",
			ready.Version, ready.UptimeSeconds, health.Version)
	}
}

// TestSharedRegistryAndRecorder: WithMetrics/WithTrace substitute
// process-wide instances, so spans and counters recorded by adjacent
// components surface through this handler's endpoints.
func TestSharedRegistryAndRecorder(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(8)
	srv, _ := newTestServer(t, reefhttp.WithMetrics(reg), reefhttp.WithTrace(rec))

	id := trace.NewID()
	rec.Record(trace.Span{Trace: id, Op: "stream.publish", Shard: 2, Start: time.Now()})
	reg.Counter(metrics.StreamFramesIn.Name).Add(7)

	_, _, body := do(t, "GET", srv.URL+"/v1/metrics", "")
	if !strings.Contains(body, metrics.StreamFramesIn.Name+" 7") {
		t.Errorf("shared registry counter missing from scrape:\n%s", body)
	}
	_, _, body = do(t, "GET", srv.URL+"/v1/admin/trace?trace="+id.String(), "")
	var dump reefhttp.TraceResponse
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Op != "stream.publish" || dump.Spans[0].Shard != 2 {
		t.Fatalf("dump = %+v, want the stream.publish span", dump)
	}
}

// TestStatusClassCounters drives a 2xx and a 4xx against the same
// route and checks the class labels split the counter.
func TestStatusClassCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, _ := newTestServer(t, reefhttp.WithMetrics(reg))

	do(t, "GET", srv.URL+"/v1/stats", "")
	do(t, "POST", srv.URL+"/v1/stats", "{}") // 405

	_, _, body := do(t, "GET", srv.URL+"/v1/metrics", "")
	for _, want := range []string{
		metrics.HTTPRequests.Name + `{class="2xx",route="stats"} 1`,
		metrics.HTTPRequests.Name + `{class="4xx",route="stats"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
}

// TestUnknownPathsMintNoSeries: the route label comes only from the
// routes the handler serves, so requests for paths it does not serve,
// however many distinct ones, share the "unknown" series and add no
// series after the first. (A histogram's bucket lines come and go with
// the latencies it saw, so series are counted without them.)
func TestUnknownPathsMintNoSeries(t *testing.T) {
	srv, _ := newTestServer(t)
	get := func(path string) string {
		t.Helper()
		resp, _, body := do(t, "GET", srv.URL+path, "")
		if path != "/v1/metrics" && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		return body
	}
	series := func(body string) int {
		n := 0
		for _, line := range strings.Split(body, "\n") {
			if !strings.Contains(line, "_bucket{") {
				n++
			}
		}
		return n
	}
	get("/v1/nosuch")
	get("/v1/metrics")
	before := series(get("/v1/metrics"))
	for i := 0; i < 50; i++ {
		get(fmt.Sprintf("/v1/nosuch%d", i))
		get(fmt.Sprintf("/v1/subscriptions/s%d/nosuch%d", i, i))
		get(fmt.Sprintf("/v1/admin/nosuch%d", i))
	}
	body := get("/v1/metrics")
	if after := series(body); after != before {
		t.Errorf("150 requests for unserved paths grew the exposition from %d to %d series lines", before, after)
	}
	if strings.Contains(body, "nosuch") {
		t.Error("an unserved path segment became a route label")
	}
	if want := metrics.HTTPRequests.Name + `{class="4xx",route="unknown"} 151`; !strings.Contains(body, want) {
		t.Errorf("exposition lacks %q", want)
	}
}
