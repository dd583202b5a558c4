package reefhttp_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reef/internal/durable"
	"reef/internal/replication"
	"reef/reefhttp"
)

// replTestApplier is the minimal Applier the route tests need.
type replTestApplier struct {
	mu   sync.Mutex
	recs int
	cuts int
}

func (a *replTestApplier) ApplyReplicated(recs []durable.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recs += len(recs)
	return nil
}

func (a *replTestApplier) ApplyReplicatedCut([]durable.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cuts++
	return nil
}

func (a *replTestApplier) CaptureReplicationState(pin func()) ([]durable.Record, error) {
	pin()
	return nil, nil
}

func (a *replTestApplier) ReplicationPositions() []durable.ReplPosition { return nil }

func (a *replTestApplier) cutCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cuts
}

// newReplServer mounts the full handler with a replication manager over
// a real (small) deployment.
func newReplServer(t *testing.T) (*httptest.Server, *replTestApplier) {
	t.Helper()
	app := &replTestApplier{}
	mgr, err := replication.New(replication.Options{
		Self: "b",
		Nodes: []replication.Node{
			{ID: "a", BaseURL: "http://unused.test"},
			{ID: "b", BaseURL: "http://unused.test"},
		},
		Applier: app,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv, _ := newTestServer(t, reefhttp.WithReplication(mgr))
	return srv, app
}

// mustRequest builds a POST with the given headers.
func mustRequest(t *testing.T, url string, hdr map[string]string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return req
}

// post issues a POST with the given headers and returns its status and
// error envelope.
func post(t *testing.T, url string, hdr map[string]string) (*http.Response, reefhttp.ErrorBody) {
	t.Helper()
	resp, err := http.DefaultClient.Do(mustRequest(t, url, hdr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope reefhttp.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&envelope)
	return resp, envelope
}

// dialLink opens a replication link from source "a" to the server.
func dialLink(t *testing.T, url string) *replication.Link {
	t.Helper()
	l, err := replication.DialLink(http.DefaultTransport, replication.Node{BaseURL: url}, "a", 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// ship sends one batch of frames over the link.
func ship(t *testing.T, l *replication.Link, prev, last int64, cut bool, frames []byte) durable.ReplAck {
	t.Helper()
	recs, err := durable.Replay(frames)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := l.Ship(durable.ReplBatch{Prev: prev, Last: last, Count: len(recs), Cut: cut, Bytes: len(frames)}, frames)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestReplicationRoutes pins the wire surface end to end: a link
// upgraded on the ingest route carries batches with acks, a watermark
// conflict answered with the authoritative position, and a resync batch
// superseding a gap and reaching ApplyReplicatedCut; then the admin
// status endpoint and the merged stats gauges.
func TestReplicationRoutes(t *testing.T) {
	srv, app := newReplServer(t)
	l := dialLink(t, srv.URL)

	// A valid batch is acked with the new watermark.
	frames := durable.CursorAckRecord(durable.CursorAckPayload{User: "u", ID: "s", Seq: 1}).AppendEncoded(nil)
	if ack := ship(t, l, 0, 1, false, frames); ack.Kind != durable.AckOK || ack.Acked != 1 {
		t.Fatalf("ingest = %+v, want ok ack 1", ack)
	}

	// A mismatched prev is answered with the authoritative position.
	if ack := ship(t, l, 7, 8, false, frames); ack.Kind != durable.AckConflict || ack.Acked != 1 {
		t.Fatalf("conflict = %+v, want conflict ack 1", ack)
	}

	// A resync batch supersedes the gap up to its last record and is
	// applied as a cut, synced before the ack.
	ack := ship(t, l, 1, 9, true, durable.FlagRecord("ads.test", 1).AppendEncoded(nil))
	if ack.Kind != durable.AckOK || ack.Acked != 9 || app.cutCount() != 1 {
		t.Fatalf("resync batch = %+v with %d cuts applied, want ok ack 9 and 1", ack, app.cutCount())
	}

	// The admin endpoint reports the inbound stream position.
	resp2, _, body := do(t, "GET", srv.URL+"/v1/admin/replication", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("admin status = %d: %s", resp2.StatusCode, body)
	}
	var st reefhttp.ReplicationStatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Replication.Sources) != 1 || st.Replication.Sources[0].Applied != 9 {
		t.Fatalf("admin status sources = %+v, want one at 9", st.Replication.Sources)
	}

	// Replication gauges ride along on /v1/stats.
	resp2, _, body = do(t, "GET", srv.URL+"/v1/stats", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d: %s", resp2.StatusCode, body)
	}
	var stats reefhttp.StatsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Stats["replication_applied_records"] != 9 {
		t.Fatalf("stats gauge replication_applied_records = %v, want 9", stats.Stats["replication_applied_records"])
	}
}

// TestReplicationRouteErrors pins the failure envelopes: a request
// without the upgrade, missing or bad handshake headers, wrong methods,
// the retired snapshot route, and the 501 answer when no manager is
// mounted.
func TestReplicationRouteErrors(t *testing.T) {
	srv, _ := newReplServer(t)
	url := srv.URL + replication.RecordsPath
	upgrade := func(hdr map[string]string) map[string]string {
		hdr["Connection"] = "Upgrade"
		hdr["Upgrade"] = replication.LinkProtocol
		return hdr
	}

	// An older sender's POST, without the upgrade.
	resp, envelope := post(t, url, map[string]string{
		replication.HdrSource: "a", replication.HdrEpoch: "1", "X-Reef-Replication-Prev": "0",
	})
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != replication.LinkProtocol ||
		envelope.Error.Code != reefhttp.CodeInvalidArgument {
		t.Fatalf("POST without upgrade = %d (Upgrade %q, code %q), want 426 naming %s",
			resp.StatusCode, resp.Header.Get("Upgrade"), envelope.Error.Code, replication.LinkProtocol)
	}
	// Missing source header.
	if resp, _ := post(t, url, upgrade(map[string]string{replication.HdrEpoch: "1"})); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing source = %d, want 400", resp.StatusCode)
	}
	// Malformed epoch header.
	hdr := upgrade(map[string]string{replication.HdrSource: "a", replication.HdrEpoch: "not-a-number"})
	if resp, _ := post(t, url, hdr); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp2, envelope, _ := do(t, "GET", srv.URL+"/v1/replication/records", "")
	if resp2.StatusCode != http.StatusMethodNotAllowed || envelope.Error.Code != reefhttp.CodeMethodNotAllowed {
		t.Fatalf("GET records = %d code %q, want 405 method_not_allowed", resp2.StatusCode, envelope.Error.Code)
	}

	// A resync rides the records route; the snapshot route is gone.
	resp2, envelope, _ = do(t, "POST", srv.URL+"/v1/replication/snapshot", "x")
	if resp2.StatusCode != http.StatusNotFound || envelope.Error.Code != reefhttp.CodeNotFound {
		t.Fatalf("POST snapshot = %d code %q, want 404 not_found", resp2.StatusCode, envelope.Error.Code)
	}

	// Without WithReplication every replication route answers 501.
	plain, _ := newTestServer(t)
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/replication/records"},
		{"GET", "/v1/admin/replication"},
	} {
		resp, envelope, _ := do(t, probe.method, plain.URL+probe.path, "")
		if resp.StatusCode != http.StatusNotImplemented || envelope.Error.Code != reefhttp.CodeUnsupported {
			t.Fatalf("%s %s without manager = %d code %q, want 501 unsupported",
				probe.method, probe.path, resp.StatusCode, envelope.Error.Code)
		}
	}
}

// guard against the route list drifting: the doc comment advertises the
// replication path the constant defines.
func TestReplicationPathConstants(t *testing.T) {
	if !strings.HasPrefix(replication.RecordsPath, "/v1/replication/") {
		t.Fatalf("replication path moved: %s", replication.RecordsPath)
	}
}

// TestBodyOverLimit pins that a body one byte past a route's limit is
// refused whole, not cut short and parsed: on a JSON route with 413 and
// the error envelope, and on a replication link, whose limit is the
// sender's batch bound, with an error ack that closes the link.
func TestBodyOverLimit(t *testing.T) {
	const jsonLimit = 16 << 20 // the JSON routes' body limit
	srv, app := newReplServer(t)
	resp, err := http.DefaultClient.Do(mustRequest(t, srv.URL+"/v1/clicks",
		map[string]string{"Content-Type": "application/json"}, bytes.Repeat([]byte{' '}, jsonLimit+1)))
	if err != nil {
		t.Fatal(err)
	}
	var envelope reefhttp.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Error.Code != reefhttp.CodeInvalidArgument {
		t.Fatalf("POST /v1/clicks with %d bytes = %d code %q, want 413 invalid_argument",
			jsonLimit+1, resp.StatusCode, envelope.Error.Code)
	}

	l := dialLink(t, srv.URL)
	frames := durable.FlagRecord("ads.test", 1).AppendEncoded(nil)
	ack, err := l.Ship(durable.ReplBatch{Prev: 0, Last: 1, Count: 1, Bytes: replication.MaxBatchBytes + 1}, frames)
	if err == nil || ack.Kind != durable.AckError {
		t.Fatalf("batch of %d bytes = (%+v, %v), want an error ack", replication.MaxBatchBytes+1, ack, err)
	}
	if _, err := l.Ship(durable.ReplBatch{Prev: 0, Last: 1, Count: 1, Bytes: len(frames)}, frames); err == nil {
		t.Fatal("the link carried a batch after refusing an oversized one, want it closed")
	}
	if app.recs != 0 || app.cuts != 0 {
		t.Fatalf("an oversized batch reached the applier (%d records, %d cuts)", app.recs, app.cuts)
	}
}
