package reefcluster_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/internal/faulthttp"
	"reef/reefcluster"
	"reef/reefstream"
)

// stallGate holds back whoever passes through it while it is stalled.
type stallGate struct {
	mu sync.Mutex
	ch chan struct{} // non-nil while stalled; closed by resume
}

func (g *stallGate) stall() {
	g.mu.Lock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *stallGate) resume() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

func (g *stallGate) pass() {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// stallListener hands the stream server connections whose reads stop
// returning while the gate is stalled: frames queue in the socket, the
// server applies and acks none of them, and they go through on resume —
// a node that stalls, not one that dies.
type stallListener struct {
	net.Listener
	gate *stallGate
}

func (l stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return stallConn{c, l.gate}, nil
}

type stallConn struct {
	net.Conn
	gate *stallGate
}

func (c stallConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.gate.pass()
	return n, err
}

// stallTransport sends one host's requests through a faulthttp
// transport that delays them past any deadline in the test, while on.
type stallTransport struct {
	host    string
	on      atomic.Bool
	stalled http.RoundTripper
}

func (s *stallTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.on.Load() && r.URL.Host == s.host {
		return s.stalled.RoundTrip(r)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// stallCluster is two stream-equipped nodes behind a router whose
// second node can be stalled on both planes at once. The prober runs
// once, in New, and then sleeps for the rest of the test, so any later
// demotion is forwardErr's.
type stallCluster struct {
	cl     *reefcluster.Cluster
	nodes  []*testNode
	victim string // ID of the stallable node
	gate   stallGate
	rest   *stallTransport
}

func startStallCluster(t *testing.T, callTimeout time.Duration) *stallCluster {
	t.Helper()
	web := testWeb(73)
	sc := &stallCluster{nodes: make([]*testNode, 2)}
	cfgNodes := make([]reefcluster.Node, 2)
	for i := range sc.nodes {
		id := string(rune('a' + i))
		n := startTestNode(t, id, 0, web)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			ln = stallListener{ln, &sc.gate}
		}
		srv := reefstream.NewServer(ln, n.dep, reefstream.WithNode(id))
		t.Cleanup(func() { srv.Close() })
		sc.nodes[i] = n
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: n.url(), StreamAddr: ln.Addr().String()}
	}
	sc.victim = sc.nodes[1].id
	sc.rest = &stallTransport{
		host:    sc.nodes[1].addr,
		stalled: faulthttp.New(nil, &faulthttp.Fault{Delay: time.Hour}),
	}
	// Registered after the servers' cleanups, so it runs before them: a
	// server cannot close while its reads are held.
	t.Cleanup(sc.resume)
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         cfgNodes,
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   callTimeout,
		Retries:       -1,
		HTTPClient:    &http.Client{Transport: sc.rest},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	sc.cl = cl
	return sc
}

func (sc *stallCluster) stall()  { sc.gate.stall(); sc.rest.on.Store(true) }
func (sc *stallCluster) resume() { sc.rest.on.Store(false); sc.gate.resume() }

func (sc *stallCluster) victimState() string {
	for _, s := range sc.cl.Status() {
		if s.Node.ID == sc.victim {
			return s.State
		}
	}
	return ""
}

// TestClusterCallerDeadlineDoesNotDemote pins who is blamed when a
// forwarded call fails on time: a caller whose own deadline expires
// gets its context error back and the node stays Up, on every verb and
// both planes; the router's own CallTimeout expiring against the same
// stalled node still demotes it.
func TestClusterCallerDeadlineDoesNotDemote(t *testing.T) {
	feeds := feedURLs(testWeb(73))
	feed := feeds[0]
	item := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/item",
	}}

	t.Run("caller deadline", func(t *testing.T) {
		ctx := context.Background()
		sc := startStallCluster(t, 5*time.Second)
		cl := sc.cl
		user := usersPerNode(cl, sc.nodes, 1)[sc.victim][0]

		// A lease far longer than the test: a window parked behind it
		// would never come back in time.
		sub, err := cl.Subscribe(ctx, user, feed,
			reef.WithGuarantee(reef.AtLeastOnce), reef.WithAckTimeout(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.PublishEvent(ctx, item); err != nil {
			t.Fatal(err)
		}
		first, err := cl.FetchEvents(ctx, user, sub.ID, 10)
		if err != nil || len(first) != 1 {
			t.Fatalf("FetchEvents before the stall = %d events, %v; want 1", len(first), err)
		}
		if err := cl.Ack(ctx, user, sub.ID, first[0].Seq, false); err != nil {
			t.Fatal(err)
		}
		before, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}

		sc.stall()
		calls := []struct {
			name string
			call func(ctx context.Context) error
		}{
			{"FetchEvents", func(ctx context.Context) error {
				_, err := cl.FetchEvents(ctx, user, sub.ID, 10)
				return err
			}},
			{"Ack", func(ctx context.Context) error {
				return cl.Ack(ctx, user, sub.ID, first[0].Seq, false)
			}},
			{"Subscribe", func(ctx context.Context) error {
				_, err := cl.Subscribe(ctx, user, feeds[1])
				return err
			}},
			{"IngestClicks", func(ctx context.Context) error {
				_, err := cl.IngestClicks(ctx, []reef.Click{{User: user, URL: "http://x.test/", At: time.Now()}})
				return err
			}},
			{"PublishEvents", func(ctx context.Context) error {
				_, err := cl.PublishBatch(ctx, []reef.Event{{Attrs: map[string]string{
					"type": "feed-item", "feed": "http://nobody.test/feed", "title": "t", "link": "http://x.test/other",
				}}})
				return err
			}},
		}
		for _, c := range calls {
			dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			err := c.call(dctx)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s under a 50ms caller deadline = %v, want context.DeadlineExceeded", c.name, err)
			}
			if errors.Is(err, reefcluster.ErrNodeDown) {
				t.Errorf("%s under a 50ms caller deadline = %v: the caller's deadline was blamed on the node", c.name, err)
			}
			if st := sc.victimState(); st != "up" {
				t.Fatalf("node %s is %q after %s hit its caller's deadline, want up", sc.victim, st, c.name)
			}
		}
		sc.resume()

		after, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"cluster_forward_errors", "cluster_publish_skips"} {
			if after[k] != before[k] {
				t.Errorf("%s went %v -> %v across caller deadlines, want unchanged", k, before[k], after[k])
			}
		}

		// The consumer's session survived: what is retained for it next
		// arrives at once, not after a lease. (A leased event holds back
		// the ones behind it, so each batch is acked before the next.)
		if _, err := cl.PublishBatch(ctx, []reef.Event{item, item, item}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got := 0
		for got < 3 && time.Since(start) < 10*time.Second {
			evs, err := cl.FetchEvents(ctx, user, sub.ID, 10)
			if err != nil {
				t.Fatalf("FetchEvents after the stall: %v", err)
			}
			if len(evs) == 0 {
				continue
			}
			got += len(evs)
			if err := cl.Ack(ctx, user, sub.ID, evs[len(evs)-1].Seq, false); err != nil {
				t.Fatalf("Ack after the stall: %v", err)
			}
		}
		if got != 3 {
			t.Fatalf("FetchEvents after the stall returned %d events in %v, want 3", got, time.Since(start))
		}
	})

	// The mirror image, and the reason nodeFault cannot be written as
	// errors.Is(err, context.DeadlineExceeded): both planes' own call
	// timeouts wrap that sentinel and mean the node did not answer.
	t.Run("router call timeout", func(t *testing.T) {
		ctx := context.Background()
		sc := startStallCluster(t, 100*time.Millisecond)
		cl := sc.cl
		user := usersPerNode(cl, sc.nodes, 1)[sc.victim][0]
		sub, err := cl.Subscribe(ctx, user, feed, reef.WithGuarantee(reef.AtLeastOnce))
		if err != nil {
			t.Fatal(err)
		}
		// Open the stream connections: a dial into the stalled listener
		// would fail its handshake, not the round trip this test stalls.
		if _, err := cl.PublishEvent(ctx, item); err != nil {
			t.Fatal(err)
		}
		calls := []struct {
			name string
			call func() error
		}{
			{"Ack (stream)", func() error { return cl.Ack(ctx, user, sub.ID, 0, false) }},
			{"Unsubscribe (REST)", func() error { return cl.Unsubscribe(ctx, user, feed) }},
		}
		for _, c := range calls {
			before, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sc.stall()
			err = c.call()
			sc.resume()
			if !errors.Is(err, reefcluster.ErrNodeDown) || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s past CallTimeout = %v, want ErrNodeDown wrapping context.DeadlineExceeded", c.name, err)
			}
			if st := sc.victimState(); st != "down" {
				t.Errorf("node %s is %q after %s ran past CallTimeout, want down", sc.victim, st, c.name)
			}
			cl.ProbeNow(ctx) // re-admission wants two Up probes in a row
			cl.ProbeNow(ctx)
			if st := sc.victimState(); st != "up" {
				t.Fatalf("node %s is %q after a probe of the resumed node, want up", sc.victim, st)
			}
			after, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if d := after["cluster_forward_errors"] - before["cluster_forward_errors"]; d != 1 {
				t.Errorf("cluster_forward_errors advanced by %v across %s, want 1", d, c.name)
			}
		}
	})
}
