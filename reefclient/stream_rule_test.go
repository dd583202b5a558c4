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

// TestTransportRule pins the one stream-or-REST rule, row by row, on
// every verb a transport carries: which errors are the answer, which
// send the call to REST, and that a verb that may not be repeated
// (clicks) answers a connection-level failure instead of re-sending.
func TestTransportRule(t *testing.T) {
	var restCalls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		restCalls.Add(1)
		w.Write([]byte(`{"delivered":1,"accepted":1,"events":[]}`))
	}))
	defer ts.Close()

	verbs := []struct {
		name      string
		mayRepeat bool
		call      func(ctx context.Context, c *Client) error
	}{
		{"PublishEvent", true, func(ctx context.Context, c *Client) error {
			_, err := c.PublishEvent(ctx, reef.Event{Attrs: map[string]string{"k": "v"}})
			return err
		}},
		{"PublishBatch", true, func(ctx context.Context, c *Client) error {
			_, err := c.PublishBatch(ctx, []reef.Event{{Attrs: map[string]string{"k": "v"}}})
			return err
		}},
		{"IngestClicks", false, func(ctx context.Context, c *Client) error {
			_, err := c.IngestClicks(ctx, []reef.Click{{User: "u", URL: "http://x.test/"}})
			return err
		}},
		{"FetchEvents", true, func(ctx context.Context, c *Client) error {
			_, err := c.FetchEvents(ctx, "u", "s", 8)
			return err
		}},
		{"Ack", true, func(ctx context.Context, c *Client) error {
			return c.Ack(ctx, "u", "s", 1, false)
		}},
	}
	connReset := errors.New("read tcp: connection reset by peer")
	rows := []struct {
		name   string
		err    error
		cancel bool // the caller's ctx is done before the call
		rest   bool // the call lands on REST (for a verb that may repeat)
		wantIs error
	}{
		{name: "ok"},
		{name: "caller ctx done", err: context.Canceled, cancel: true, wantIs: context.Canceled},
		{name: "call timeout", err: fmt.Errorf("stream: %w", context.DeadlineExceeded), wantIs: context.DeadlineExceeded},
		{name: "not sent", err: fmt.Errorf("%w: dial refused", reefstream.ErrNotSent), rest: true},
		{name: "unsupported", err: &reefstream.StatusError{Status: reefstream.StatusUnsupported}, wantIs: reef.ErrUnsupported},
		{name: "internal verdict", err: &reefstream.StatusError{Status: reefstream.StatusInternal, Message: "boom"}},
		{name: "invalid argument", err: fmt.Errorf("stream: %w", reef.ErrInvalidArgument), wantIs: reef.ErrInvalidArgument},
		{name: "not found", err: reef.ErrNotFound, wantIs: reef.ErrNotFound},
		{name: "closed", err: reef.ErrClosed, wantIs: reef.ErrClosed},
		{name: "connection", err: connReset, rest: true},
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
				err := v.call(ctx, c)

				toREST := row.rest
				if row.err == connReset && !v.mayRepeat {
					toREST = false
				}
				wantREST := int64(0)
				if toREST {
					wantREST = 1
				}
				if tr.calls != 1 || restCalls.Load() != wantREST {
					t.Fatalf("(%d stream calls, %d REST calls), want (1, %d)", tr.calls, restCalls.Load(), wantREST)
				}
				switch {
				case row.err == nil || toREST:
					if err != nil {
						t.Fatalf("err = %v, want the call served", err)
					}
				case row.wantIs != nil:
					if !errors.Is(err, row.wantIs) {
						t.Fatalf("err = %v, want %v", err, row.wantIs)
					}
				default:
					if !errors.Is(err, row.err) {
						t.Fatalf("err = %v, want the transport's %v", err, row.err)
					}
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
	var restCalls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		restCalls.Add(1)
		w.Write([]byte(`{"accepted":1}`))
	}))
	defer ts.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var frames atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serveClicksThenDie(conn, &frames)
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
	}()

	c := New(ts.URL, WithTransport(reefstream.NewClient(ln.Addr().String())))
	defer c.Close()
	if _, err := c.IngestClicks(context.Background(), []reef.Click{{User: "u", URL: "http://x.test/", At: t0}}); err == nil {
		t.Fatal("IngestClicks succeeded though the stream died before the ack")
	}
	if got := frames.Load(); got != 1 {
		t.Errorf("stream read %d clicks frames, want exactly 1", got)
	}
	if restCalls.Load() != 0 {
		t.Errorf("REST saw %d calls, want 0: the batch was repeated", restCalls.Load())
	}
}

// serveClicksThenDie answers a hello that advertises the clicks verb,
// then counts one clicks frame and closes the connection unacked.
func serveClicksThenDie(conn net.Conn, frames *atomic.Int64) {
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
		case durable.OpStreamClicks:
			frames.Add(1)
			return
		}
	}
}

// TestTransportPublishFallsBackToREST pins that an SDK publish whose
// stream listener is gone lands over REST, as the router's does.
func TestTransportPublishFallsBackToREST(t *testing.T) {
	ctx := context.Background()
	var restPublishes atomic.Int64
	dep, ts, srv := newStreamNode(t, "/v1/events:batch", &restPublishes)
	addr := srv.Addr().String()
	srv.Close() // stream plane down, node alive

	c := New(ts.URL, WithTransport(reefstream.NewClient(addr)))
	defer c.Close()
	ev := reef.Event{Source: "test", Attrs: map[string]string{"type": "feed-item", "feed": "http://x.test/f.xml", "title": "t", "link": "http://x.test/1"}}
	if _, err := c.PublishBatch(ctx, []reef.Event{ev, ev}); err != nil {
		t.Fatalf("PublishBatch with the stream down: %v", err)
	}
	if restPublishes.Load() != 1 {
		t.Errorf("/v1/events:batch was hit %d times, want 1", restPublishes.Load())
	}
	stats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[metrics.BrokerPublished.Key]; got != 2 {
		t.Errorf("%s = %v, want 2", metrics.BrokerPublished.Key, got)
	}
}
