package reefhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/internal/replication"
	"reef/internal/upgrade"
	"reef/reefhttp"
	"reef/reefstream"
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

// TestReplicationRouteErrors pins the failure envelopes: the previous
// version's link request, an upgrade to its own protocol on the retired
// records route, and the snapshot route retired before it answer 404;
// without WithReplication the admin status endpoint answers 501.
func TestReplicationRouteErrors(t *testing.T) {
	srv, app := newReplServer(t)
	resp, envelope := post(t, srv.URL+"/v1/replication/records", map[string]string{
		"Connection": "Upgrade", "Upgrade": "reef-replication/1",
		"X-Reef-Replication-Source": "a", "X-Reef-Replication-Epoch": "1",
	})
	if resp.StatusCode != http.StatusNotFound || envelope.Error.Code != reefhttp.CodeNotFound {
		t.Fatalf("the previous version's link request = %d code %q, want 404 not_found", resp.StatusCode, envelope.Error.Code)
	}
	if app.recs != 0 || app.cuts != 0 {
		t.Fatalf("a refused link reached the applier (%d records, %d cuts)", app.recs, app.cuts)
	}

	resp2, envelope, _ := do(t, "POST", srv.URL+"/v1/replication/snapshot", "x")
	if resp2.StatusCode != http.StatusNotFound || envelope.Error.Code != reefhttp.CodeNotFound {
		t.Fatalf("POST snapshot = %d code %q, want 404 not_found", resp2.StatusCode, envelope.Error.Code)
	}

	plain, _ := newTestServer(t)
	resp2, envelope, _ = do(t, "GET", plain.URL+"/v1/admin/replication", "")
	if resp2.StatusCode != http.StatusNotImplemented || envelope.Error.Code != reefhttp.CodeUnsupported {
		t.Fatalf("GET /v1/admin/replication without manager = %d code %q, want 501 unsupported",
			resp2.StatusCode, envelope.Error.Code)
	}
}

// TestLinkHelloRefused pins the refusals a link meets at its hello: a
// handler without WithReplication, and a link hello naming no source,
// fail the dial with the reason the server's hello gives, and nothing
// is applied.
func TestLinkHelloRefused(t *testing.T) {
	plain, _ := newTestServer(t)
	_, err := replication.DialLink(http.DefaultTransport, replication.Node{BaseURL: plain.URL}, "a", 1, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "takes no replication links") {
		t.Fatalf("link to a handler without replication = %v, want the refusal's reason", err)
	}
	srv, app := newReplServer(t)
	_, err = replication.DialLink(http.DefaultTransport, replication.Node{BaseURL: srv.URL}, "", 1, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "must name its source") {
		t.Fatalf("link hello without a source = %v, want the refusal's reason", err)
	}
	if app.recs != 0 || app.cuts != 0 {
		t.Fatalf("a refused link reached the applier (%d records, %d cuts)", app.recs, app.cuts)
	}
}

// TestLinkToStreamOnlyServer pins the mixed-version rule from the
// sender's side: a link hello that reaches a server serving only stream
// clients ships nothing, and the sender's status for the peer carries
// the error, naming the peer and the batch when the batch failed. The previous version's /v1/stream read any hello as a
// stream client's and killed the connection at the first batch, an op
// it does not serve; a Listen server refuses the link at its hello.
func TestLinkToStreamOnlyServer(t *testing.T) {
	_, dep := newTestServer(t)
	prevStream := reefstream.NewServer(nil, dep, reefstream.WithNode("b"))
	t.Cleanup(func() { prevStream.Close() })
	prev := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + upgrade.Protocol + "\r\n\r\n")
		if brw.Flush() != nil {
			conn.Close()
			return
		}
		// The previous version's answer, its hello whatever role the
		// client's declares, then the stream whatever the frames.
		if _, err := upgrade.Accept(conn, brw.Reader, "b", true); err != nil {
			conn.Close()
			return
		}
		prevStream.ServeConn(conn, brw.Reader)
	}))
	t.Cleanup(prev.Close)
	listen, err := reefstream.Listen("127.0.0.1:0", dep, reefstream.WithNode("b"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listen.Close() })

	for _, tc := range []struct {
		name, addr string
		stream     *reefstream.Server
		wantErr    string // LastError contains it
	}{
		{"previous /v1/stream", prev.URL, prevStream, "replication: batch to " + prev.URL + ": "},
		{"Listen server", listen.Addr().String(), listen, "hello refused: this node takes no replication links"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sender, err := replication.New(replication.Options{
				Self:          "a",
				Nodes:         []replication.Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: tc.addr}},
				Replicas:      1,
				Applier:       &replTestApplier{},
				RetryInterval: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sender.Close()
			sender.Offer(durable.CursorAckRecord(durable.CursorAckPayload{User: "u", ID: "s", Seq: 1}))
			var st replication.PeerStatus
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if st = sender.Status().Peers[0]; st.LastError != "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the sender never failed on b: %+v", st)
				}
			}
			if !strings.Contains(st.LastError, tc.wantErr) {
				t.Errorf("b's last error = %q, want it to contain %q", st.LastError, tc.wantErr)
			}
			if st.Shipped != 0 || st.Pending != 1 {
				t.Errorf("sender's status for b = %+v, want nothing shipped and the record pending", st)
			}
			if frames, events := tc.stream.Stats(); frames != 0 || events != 0 {
				t.Errorf("the stream server applied %d frames, %d events of a link", frames, events)
			}
		})
	}
}

// TestStreamConnsCountStreamClients pins that the upgrade route hands
// the stream server stream clients only: with one live replication link
// and one stream client on a node, reef_stream_conns reads 1, and the
// manager still closes its inbound link when it closes. The handler has
// no node ID, so both roles' hellos name the manager's Self.
func TestStreamConnsCountStreamClients(t *testing.T) {
	mgr, err := replication.New(replication.Options{
		Self:    "b",
		Nodes:   []replication.Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}},
		Applier: &replTestApplier{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	reg := metrics.NewRegistry()
	srv, _ := newTestServer(t, reefhttp.WithReplication(mgr), reefhttp.WithMetrics(reg))

	l, err := replication.DialLink(http.DefaultTransport, replication.Node{ID: "b", BaseURL: srv.URL}, "a", 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frames := durable.CursorAckRecord(durable.CursorAckPayload{User: "u", ID: "s", Seq: 1}).AppendEncoded(nil)
	if ack := ship(t, l, 0, 1, false, frames); ack.Kind != durable.AckOK {
		t.Fatalf("batch over the link = %+v, want ok", ack)
	}
	c := reefstream.NewClient(srv.URL, reefstream.WithExpectNode("b"))
	defer c.Close()
	if _, err := c.PublishEvent(context.Background(), reef.Event{Source: "s", Attrs: map[string]string{"type": "t"}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(metrics.StreamConns.Name).Value(); got != 1 {
		t.Fatalf("reef_stream_conns = %d with one link and one stream client, want 1", got)
	}

	mgr.Close()
	if _, err := l.Ship(durable.ReplBatch{Prev: 1, Last: 2, Count: 1, Bytes: len(frames)}, frames); err == nil {
		t.Fatal("the link carried a batch after its manager closed")
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
