package reefclient

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"reef"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/reefhttp"
	"reef/reefstream"
)

// scriptedTransport answers every verb with err, or with one unit of
// success when err is nil, and counts the calls.
type scriptedTransport struct {
	err   error
	calls int
}

func (s *scriptedTransport) answer() (int, error) {
	s.calls++
	if s.err != nil {
		return 0, s.err
	}
	return 1, nil
}

func (s *scriptedTransport) PublishEvent(context.Context, reef.Event) (int, error) {
	return s.answer()
}

func (s *scriptedTransport) PublishBatch(context.Context, []reef.Event) (int, error) {
	return s.answer()
}

func (s *scriptedTransport) IngestClicks(context.Context, []reef.Click) (int, error) {
	return s.answer()
}

func (s *scriptedTransport) FetchEvents(context.Context, string, string, int) ([]reef.DeliveredEvent, error) {
	if _, err := s.answer(); err != nil {
		return nil, err
	}
	return []reef.DeliveredEvent{{Seq: 1}}, nil
}

func (s *scriptedTransport) Ack(context.Context, string, string, int64, bool) error {
	_, err := s.answer()
	return err
}

func (s *scriptedTransport) Close() error { return nil }

// TestTransportRule pins the one rule under every verb a transport
// carries: the transport's result and error are the Client's answer,
// and no call is repeated over REST — not a connection-level failure,
// not a dial that sent nothing, not an unsupported verdict.
func TestTransportRule(t *testing.T) {
	var restCalls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		restCalls.Add(1)
		w.Write([]byte(`{"delivered":1,"accepted":1,"events":[]}`))
	}))
	defer ts.Close()

	// Each call returns the size of its result: a count, or how many
	// events a fetch returned; Ack has none and reports 1.
	verbs := []struct {
		name string
		call func(ctx context.Context, c *Client) (int, error)
	}{
		{"PublishEvent", func(ctx context.Context, c *Client) (int, error) {
			return c.PublishEvent(ctx, reef.Event{Attrs: map[string]string{"k": "v"}})
		}},
		{"PublishBatch", func(ctx context.Context, c *Client) (int, error) {
			return c.PublishBatch(ctx, []reef.Event{{Attrs: map[string]string{"k": "v"}}})
		}},
		{"IngestClicks", func(ctx context.Context, c *Client) (int, error) {
			return c.IngestClicks(ctx, []reef.Click{{User: "u", URL: "http://x.test/"}})
		}},
		{"FetchEvents", func(ctx context.Context, c *Client) (int, error) {
			evs, err := c.FetchEvents(ctx, "u", "s", 8)
			return len(evs), err
		}},
		{"Ack", func(ctx context.Context, c *Client) (int, error) {
			return 1, c.Ack(ctx, "u", "s", 1, false)
		}},
	}
	rows := []struct {
		name   string
		err    error
		cancel bool // the caller's ctx is done before the call
	}{
		{name: "ok"},
		{name: "caller ctx done", err: context.Canceled, cancel: true},
		{name: "call timeout", err: fmt.Errorf("stream: %w", context.DeadlineExceeded)},
		{name: "not sent", err: errors.New("dial tcp 127.0.0.1:7: connect: connection refused")},
		{name: "unsupported", err: &reefstream.StatusError{Status: reefstream.StatusUnsupported}},
		{name: "unsupported sentinel", err: reef.ErrUnsupported},
		{name: "internal verdict", err: &reefstream.StatusError{Status: reefstream.StatusInternal, Message: "boom"}},
		{name: "invalid argument", err: fmt.Errorf("stream: %w", reef.ErrInvalidArgument)},
		{name: "not found", err: reef.ErrNotFound},
		{name: "closed", err: reef.ErrClosed},
		{name: "connection", err: errors.New("read tcp: connection reset by peer")},
	}
	for _, v := range verbs {
		for _, row := range rows {
			t.Run(v.name+"/"+row.name, func(t *testing.T) {
				restCalls.Store(0)
				tr := &scriptedTransport{err: row.err}
				c := New(ts.URL, WithTransport(tr))
				defer c.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if row.cancel {
					cancel()
				}
				n, err := v.call(ctx, c)
				if tr.calls != 1 || restCalls.Load() != 0 {
					t.Fatalf("(%d transport calls, %d REST calls), want (1, 0)", tr.calls, restCalls.Load())
				}
				if err != row.err {
					t.Fatalf("err = %v, want the transport's own %v", err, row.err)
				}
				if err == nil && n != 1 {
					t.Fatalf("result of size %d, want the transport's 1", n)
				}
			})
		}
	}
}

// countingHandler counts the requests to one path before serving them.
func countingHandler(h http.Handler, path string, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path {
			n.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// newStreamNode stands up a real deployment behind both planes: the
// REST surface (counting calls to countPath) and a stream listener.
func newStreamNode(t *testing.T, countPath string, n *atomic.Int64) (*reef.Centralized, *httptest.Server, *reefstream.Server) {
	t.Helper()
	_, dep, _ := newServer(t, 5)
	ts := httptest.NewServer(countingHandler(reefhttp.NewHandler(dep, nil), countPath, n))
	t.Cleanup(ts.Close)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return dep, ts, srv
}

// TestTransportClicksRideStream pins that an SDK click batch rides the
// transport: the node's stream takes every click and REST none.
func TestTransportClicksRideStream(t *testing.T) {
	ctx := context.Background()
	var restClicks atomic.Int64
	dep, ts, srv := newStreamNode(t, "/v1/clicks", &restClicks)
	c := New(ts.URL, WithTransport(reefstream.NewClient(srv.Addr().String())))
	defer c.Close()

	clicks := make([]reef.Click, 12)
	for i := range clicks {
		clicks[i] = reef.Click{User: fmt.Sprintf("u%d", i%3), URL: fmt.Sprintf("http://x.test/p/%d.html", i), At: t0}
	}
	if n, err := c.IngestClicks(ctx, clicks); err != nil || n != len(clicks) {
		t.Fatalf("IngestClicks = (%d, %v), want %d", n, err, len(clicks))
	}
	if got := srv.Metrics().Counter(metrics.StreamClicksIn.Name).Value(); got != int64(len(clicks)) {
		t.Errorf("%s = %d, want %d", metrics.StreamClicksIn.Name, got, len(clicks))
	}
	if restClicks.Load() != 0 {
		t.Errorf("/v1/clicks was hit %d times, want 0", restClicks.Load())
	}
	stats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["clicks_stored"] != float64(len(clicks)) {
		t.Errorf("clicks_stored = %v, want %d", stats["clicks_stored"], len(clicks))
	}
}

// TestTransportClicksNeverResent pins that the SDK never repeats a
// clicks frame: the stream reads the frame and dies before the ack, so
// the clicks may have landed, and the call fails instead of sending the
// batch again over the stream or over REST.
func TestTransportClicksNeverResent(t *testing.T) {
	frames, restCalls, err := sendToDyingStream(t, func(c *Client) error {
		_, err := c.IngestClicks(context.Background(), []reef.Click{{User: "u", URL: "http://x.test/", At: t0}})
		return err
	}, durable.OpStreamClicks)
	if err == nil {
		t.Fatal("IngestClicks succeeded though the stream died before the ack")
	}
	if frames != 1 || restCalls != 0 {
		t.Errorf("(%d stream clicks frames, %d REST calls), want (1, 0): the batch was repeated", frames, restCalls)
	}
}

// TestTransportPublishSendBound pins how often one SDK publish may go
// out when its stream dies before every ack: twice, both over the
// stream (the stream client's one re-send on a fresh connection), and
// never a third time over REST. The call fails with the connection
// loss; each send may have been applied.
func TestTransportPublishSendBound(t *testing.T) {
	ev := reef.Event{Source: "test", Attrs: map[string]string{"type": "feed-item", "feed": "http://x.test/f.xml", "title": "t", "link": "http://x.test/1"}}
	var n int
	frames, restCalls, err := sendToDyingStream(t, func(c *Client) error {
		var err error
		n, err = c.PublishBatch(context.Background(), []reef.Event{ev})
		return err
	}, durable.OpStreamPublish)
	if frames != 2 || restCalls != 0 {
		t.Errorf("(%d stream publish frames, %d REST calls), want (2, 0)", frames, restCalls)
	}
	if err == nil || !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("PublishBatch = (%d, %v), want the connection loss", n, err)
	}
}

// sendToDyingStream runs call on a Client whose transport dials a
// scripted stream that answers each hello, reads one frame of op and
// closes the connection unacked, and whose REST server answers any
// call. It returns the frames of op the stream read, the REST calls,
// and call's error.
func sendToDyingStream(t *testing.T, call func(*Client) error, op durable.Op) (frames, restCalls int64, err error) {
	t.Helper()
	var rest atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest.Add(1)
		w.Write([]byte(`{"delivered":1,"accepted":1}`))
	}))
	defer ts.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var read atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serveFrameThenDie(conn, op, &read)
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
	}()

	c := New(ts.URL, WithTransport(reefstream.NewClient(ln.Addr().String())))
	defer c.Close()
	err = call(c)
	return read.Load(), rest.Load(), err
}

// serveFrameThenDie answers a hello that advertises the clicks verb,
// then counts one frame of op and closes the connection unacked.
func serveFrameThenDie(conn net.Conn, op durable.Op, frames *atomic.Int64) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		hdr := make([]byte, durable.FrameHeaderLen)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		frame := append(hdr, make([]byte, durable.FrameBodyLen(hdr))...)
		if _, err := io.ReadFull(br, frame[durable.FrameHeaderLen:]); err != nil {
			return
		}
		rec, _, err := durable.DecodeFrame(frame)
		if err != nil {
			return
		}
		switch rec.Op {
		case durable.OpStreamHello:
			hello := durable.Record{Op: durable.OpStreamHello, Payload: []byte(`{"proto":1,"clicks":true}`)}
			if _, err := conn.Write(hello.AppendEncoded(nil)); err != nil {
				return
			}
		case op:
			frames.Add(1)
			return
		}
	}
}
