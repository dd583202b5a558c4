package reefclient

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"reef"
	"reef/reefstream"
)

// The stream client is the intended data plane; pin that it satisfies
// the Transport surface structurally (reefstream does not import this
// package), including the consume side.
var _ Transport = (*reefstream.Client)(nil)

// TestDefaultClientReusesConnections is the regression test for the
// connection-churn bug: the old default (http.DefaultClient, whose
// transport keeps only 2 idle connections per host) redialed TCP on
// nearly every call once concurrency passed 2. The tuned default pool
// must serve a concurrent publish load over a bounded set of
// connections instead of one per request.
func TestDefaultClientReusesConnections(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"delivered":0}`))
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := New(ts.URL)
	ctx := context.Background()
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.PublishEvent(ctx, reef.Event{Attrs: map[string]string{"k": "v"}}); err != nil {
					t.Errorf("PublishEvent: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every worker may own a connection, plus slack for races during
	// ramp-up. With the 2-per-host default this load opens one
	// connection per request (240), so the bound below has a wide
	// margin on both sides.
	if got := conns.Load(); got > workers*2 {
		t.Errorf("server saw %d TCP connections for %d requests; the pool is churning", got, workers*perWorker)
	}
}

// recordingTransport counts what the client routes to the data plane.
type recordingTransport struct {
	events  int
	batches int
	closed  bool
}

func (r *recordingTransport) PublishEvent(ctx context.Context, ev reef.Event) (int, error) {
	r.events++
	return 1, nil
}

func (r *recordingTransport) PublishBatch(ctx context.Context, evs []reef.Event) (int, error) {
	r.batches += len(evs)
	return len(evs), nil
}

func (r *recordingTransport) IngestClicks(ctx context.Context, clicks []reef.Click) (int, error) {
	return len(clicks), nil
}

func (r *recordingTransport) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	return nil, nil
}

func (r *recordingTransport) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	return nil
}

func (r *recordingTransport) Close() error {
	r.closed = true
	return nil
}

// TestWithTransportRoutesPublishes pins the control/data-plane split:
// publishes ride the transport, everything else still hits REST, and
// Close tears the transport down.
func TestWithTransportRoutesPublishes(t *testing.T) {
	var restCalls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		restCalls.Add(1)
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	tr := &recordingTransport{}
	c := New(ts.URL, WithTransport(tr))
	ctx := context.Background()
	if n, err := c.PublishEvent(ctx, reef.Event{Attrs: map[string]string{"k": "v"}}); err != nil || n != 1 {
		t.Fatalf("PublishEvent = (%d, %v)", n, err)
	}
	if n, err := c.PublishBatch(ctx, make([]reef.Event, 3)); err != nil || n != 3 {
		t.Fatalf("PublishBatch = (%d, %v)", n, err)
	}
	if tr.events != 1 || tr.batches != 3 {
		t.Errorf("transport saw (%d events, %d batch events), want (1, 3)", tr.events, tr.batches)
	}
	if restCalls.Load() != 0 {
		t.Errorf("publishes leaked onto REST: %d calls", restCalls.Load())
	}
	if _, err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready over REST: %v", err)
	}
	if restCalls.Load() == 0 {
		t.Error("control-plane call did not reach REST")
	}
	if err := c.Close(); err != nil || !tr.closed {
		t.Errorf("Close = %v, transport closed = %v", err, tr.closed)
	}
}

// consumerTransportStub scripts the stream consume plane's failures.
type consumerTransportStub struct {
	recordingTransport
	fetches  int
	acks     int
	fetchErr error
	ackErr   error
}

func (s *consumerTransportStub) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	s.fetches++
	if s.fetchErr != nil {
		return nil, s.fetchErr
	}
	return []reef.DeliveredEvent{{Seq: 1}}, nil
}

func (s *consumerTransportStub) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	s.acks++
	return s.ackErr
}

// TestConsumerTransportFallback pins the consume routing contract with
// a transport: every call rides the stream and none falls back to REST.
// A connection-level failure or an unsupported verdict is the call's
// answer, and the stream is asked again on the next call rather than
// being given up; server verdicts (unknown subscription) surface as-is.
func TestConsumerTransportFallback(t *testing.T) {
	var restFetches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		restFetches.Add(1)
		w.Write([]byte(`{"events":[]}`))
	}))
	defer ts.Close()
	ctx := context.Background()

	// Healthy stream: REST never sees the fetch or the ack.
	tr := &consumerTransportStub{}
	c := New(ts.URL, WithTransport(tr))
	if evs, err := c.FetchEvents(ctx, "u", "s", 8); err != nil || len(evs) != 1 {
		t.Fatalf("FetchEvents = (%d events, %v), want the stream's delivery", len(evs), err)
	}
	if err := c.Ack(ctx, "u", "s", 1, false); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if tr.fetches != 1 || tr.acks != 1 || restFetches.Load() != 0 {
		t.Fatalf("healthy routing = (%d stream fetches, %d stream acks, %d REST calls), want (1, 1, 0)",
			tr.fetches, tr.acks, restFetches.Load())
	}
	_ = c.Close()

	// Connection-level failure: the call returns it, REST is not
	// tried, and the next call tries the stream again.
	connErr := errors.New("conn reset")
	tr = &consumerTransportStub{fetchErr: connErr}
	c = New(ts.URL, WithTransport(tr))
	for i := 0; i < 2; i++ {
		if _, err := c.FetchEvents(ctx, "u", "s", 8); !errors.Is(err, connErr) {
			t.Fatalf("FetchEvents with broken stream = %v, want the connection error", err)
		}
	}
	if tr.fetches != 2 || restFetches.Load() != 0 {
		t.Fatalf("transient routing = (%d stream tries, %d REST calls), want (2, 0)", tr.fetches, restFetches.Load())
	}
	_ = c.Close()

	// Unsupported server: each call returns the verdict, and the stream
	// is asked again on the next one.
	tr = &consumerTransportStub{fetchErr: reef.ErrUnsupported}
	c = New(ts.URL, WithTransport(tr))
	for i := 0; i < 3; i++ {
		if _, err := c.FetchEvents(ctx, "u", "s", 8); !errors.Is(err, reef.ErrUnsupported) {
			t.Fatalf("FetchEvents on unsupported server = %v, want ErrUnsupported", err)
		}
	}
	if tr.fetches != 3 || restFetches.Load() != 0 {
		t.Fatalf("unsupported routing = (%d stream tries, %d REST calls), want (3, 0)", tr.fetches, restFetches.Load())
	}
	_ = c.Close()

	// A server verdict surfaces as-is.
	tr = &consumerTransportStub{fetchErr: reef.ErrNotFound, ackErr: reef.ErrInvalidArgument}
	c = New(ts.URL, WithTransport(tr))
	if _, err := c.FetchEvents(ctx, "u", "ghost", 8); !errors.Is(err, reef.ErrNotFound) {
		t.Fatalf("FetchEvents verdict = %v, want ErrNotFound", err)
	}
	if err := c.Ack(ctx, "u", "s", 9, false); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("Ack verdict = %v, want ErrInvalidArgument", err)
	}
	if restFetches.Load() != 0 {
		t.Fatalf("server verdicts leaked onto REST: %d calls", restFetches.Load())
	}
	_ = c.Close()
}
