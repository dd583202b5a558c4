package reefhttp_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

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

func (a *replTestApplier) CaptureReplicationState(pin func()) ([]byte, error) {
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

// replPost issues an ingest POST with the wire headers.
func replPost(t *testing.T, url string, hdr map[string]string, body []byte) (*http.Response, replication.Ack) {
	t.Helper()
	resp, err := http.DefaultClient.Do(mustRequest(t, url, hdr, body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack replication.Ack
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return resp, ack
}

func recordsHdr(epoch, prev, last int64, count int) map[string]string {
	return map[string]string{
		replication.HdrSource: "a",
		replication.HdrEpoch:  strconv.FormatInt(epoch, 10),
		replication.HdrPrev:   strconv.FormatInt(prev, 10),
		replication.HdrLast:   strconv.FormatInt(last, 10),
		replication.HdrCount:  strconv.Itoa(count),
	}
}

// TestReplicationRoutes pins the wire surface end to end: ingest with
// acks, watermark conflict as 409 + Ack, a resync batch superseding a
// gap and reaching ApplyReplicatedCut, the admin status endpoint, and
// the merged stats gauges.
func TestReplicationRoutes(t *testing.T) {
	srv, app := newReplServer(t)

	// A valid batch answers 200 with the new watermark.
	frames := durable.CursorAckRecord(durable.CursorAckPayload{User: "u", ID: "s", Seq: 1}).AppendEncoded(nil)
	resp, ack := replPost(t, srv.URL+"/v1/replication/records", recordsHdr(1, 0, 1, 1), frames)
	if resp.StatusCode != http.StatusOK || ack.Acked != 1 {
		t.Fatalf("ingest = %d ack %d, want 200 ack 1", resp.StatusCode, ack.Acked)
	}

	// A mismatched prev answers 409 with the authoritative position.
	resp, ack = replPost(t, srv.URL+"/v1/replication/records", recordsHdr(1, 7, 8, 1), frames)
	if resp.StatusCode != http.StatusConflict || ack.Acked != 1 {
		t.Fatalf("conflict = %d ack %d, want 409 ack 1", resp.StatusCode, ack.Acked)
	}

	// A resync batch supersedes the gap up to its last record and is
	// applied as a cut, synced before the ack.
	hdr := recordsHdr(1, 1, 9, 1)
	hdr[replication.HdrCut] = "true"
	resp, ack = replPost(t, srv.URL+"/v1/replication/records", hdr, durable.FlagRecord("ads.test", 1).AppendEncoded(nil))
	if resp.StatusCode != http.StatusOK || ack.Acked != 9 || app.cutCount() != 1 {
		t.Fatalf("resync batch = %d ack %d with %d cuts applied, want 200 ack 9 and 1", resp.StatusCode, ack.Acked, app.cutCount())
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

// TestReplicationRouteErrors pins the failure envelopes: missing
// headers, bad header values, wrong methods, the retired snapshot route,
// and the 501 answer when no manager is mounted.
func TestReplicationRouteErrors(t *testing.T) {
	srv, _ := newReplServer(t)

	// Missing source header.
	resp, _ := replPost(t, srv.URL+"/v1/replication/records", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing headers = %d, want 400", resp.StatusCode)
	}
	// Malformed watermark header.
	hdr := recordsHdr(1, 0, 1, 1)
	hdr[replication.HdrPrev] = "not-a-number"
	resp, _ = replPost(t, srv.URL+"/v1/replication/records", hdr, nil)
	if resp.StatusCode != http.StatusBadRequest {
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
// refused whole with 413 and the error envelope, not cut short and
// parsed: on a JSON route, and on the replication ingest route, whose
// limit is the sender's batch bound.
func TestBodyOverLimit(t *testing.T) {
	const jsonLimit = 16 << 20 // the JSON routes' body limit
	srv, app := newReplServer(t)
	for _, probe := range []struct {
		path string
		size int
		hdr  map[string]string
	}{
		{"/v1/clicks", jsonLimit + 1, map[string]string{"Content-Type": "application/json"}},
		{replication.RecordsPath, replication.MaxBatchBytes + 1, recordsHdr(1, 0, 1, 1)},
	} {
		resp, err := http.DefaultClient.Do(mustRequest(t, srv.URL+probe.path, probe.hdr, bytes.Repeat([]byte{' '}, probe.size)))
		if err != nil {
			t.Fatal(err)
		}
		var envelope reefhttp.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Error.Code != reefhttp.CodeInvalidArgument {
			t.Fatalf("POST %s with %d bytes = %d code %q, want 413 invalid_argument",
				probe.path, probe.size, resp.StatusCode, envelope.Error.Code)
		}
	}
	if app.recs != 0 || app.cuts != 0 {
		t.Fatalf("an oversized batch reached the applier (%d records, %d cuts)", app.recs, app.cuts)
	}
}
