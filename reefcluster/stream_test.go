package reefcluster_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/reefclient"
	"reef/reefcluster"
	"reef/reefhttp"
	"reef/reefstream"
)

// startStreamCluster boots count nodes, each with a binary stream
// listener next to its REST surface, and a router configured to publish
// over the streams. reg is the router's Config.Metrics (nil for its own).
func startStreamCluster(t *testing.T, count int, reg *metrics.Registry) (*reefcluster.Cluster, []*testNode, []*reefstream.Server) {
	t.Helper()
	web := testWeb(71)
	nodes := make([]*testNode, count)
	streams := make([]*reefstream.Server, count)
	cfgNodes := make([]reefcluster.Node, count)
	for i := range nodes {
		id := string(rune('a' + i))
		nodes[i] = startTestNode(t, id, 0, web)
		srv, err := reefstream.Listen("127.0.0.1:0", nodes[i].dep, reefstream.WithNode(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		streams[i] = srv
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: nodes[i].url(), StreamAddr: srv.Addr().String()}
	}
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         cfgNodes,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   5 * time.Second,
		RetryBackoff:  5 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl, nodes, streams
}

// TestClusterStreamFanOut pins that publishes ride the stream plane:
// delivery counts match the REST fan-out exactly, and the stream
// servers — not REST — carried the frames, and their ack round trips
// land in the router's registry, so one scrape covers the publish leg.
func TestClusterStreamFanOut(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	cl, nodes, streams := startStreamCluster(t, 3, reg)
	byNode := usersPerNode(cl, nodes, 1)

	feed := feedURLs(testWeb(71))[0]
	for _, users := range byNode {
		if _, err := cl.Subscribe(ctx, users[0], feed); err != nil {
			t.Fatal(err)
		}
	}
	ev := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/item",
	}}
	delivered, err := cl.PublishEvent(ctx, ev)
	if err != nil {
		t.Fatalf("PublishEvent: %v", err)
	}
	if delivered != 3 {
		t.Fatalf("PublishEvent delivered %d, want 3 (one subscriber per node)", delivered)
	}
	delivered, err = cl.PublishBatch(ctx, []reef.Event{ev, ev})
	if err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	if delivered != 6 {
		t.Fatalf("PublishBatch delivered %d, want 6 (2 events x 3 subscribers)", delivered)
	}
	for i, srv := range streams {
		if frames, events := srv.Stats(); frames != 2 || events != 3 {
			t.Errorf("node %d stream carried (%d frames, %d events), want (2, 3)", i, frames, events)
		}
	}
	if got := reg.Histogram(metrics.StreamAckSeconds.Name).Count(); got == 0 {
		t.Errorf("router registry holds %d %s observations after stream publishes, want > 0", got, metrics.StreamAckSeconds.Name)
	}

	// A deterministic validation failure surfaces through the stream
	// acks with the same sentinel REST maps to, and fails the publish —
	// not the nodes.
	if _, err := cl.PublishEvent(ctx, reef.Event{Attrs: map[string]string{}}); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("invalid publish = %v, want ErrInvalidArgument", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["nodes_up"] != 3 {
		t.Errorf("nodes_up = %v after invalid publish, want 3 (validation must not demote)", stats["nodes_up"])
	}
}

// TestClusterStreamGoneDemotes pins the router's one rule for a node
// whose stream is gone while its REST surface lives: the stream's
// failure is the call's answer, so the publish lands on the survivors,
// forwardErr demotes the node and counts the publish partial, and the
// node's REST surface never sees the publish.
func TestClusterStreamGoneDemotes(t *testing.T) {
	ctx := context.Background()
	web := testWeb(71)
	nodes := make([]*testNode, 2)
	streams := make([]*reefstream.Server, 2)
	cfgNodes := make([]reefcluster.Node, 2)
	for i := range nodes {
		id := string(rune('a' + i))
		nodes[i] = startTestNode(t, id, 0, web)
		srv, err := reefstream.Listen("127.0.0.1:0", nodes[i].dep, reefstream.WithNode(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		streams[i] = srv
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: nodes[i].url(), StreamAddr: srv.Addr().String()}
	}
	// The prober sleeps, so the demotion stays in view: it would
	// re-admit the node, whose REST surface answers its probes.
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         cfgNodes,
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	feed := feedURLs(web)[0]
	for _, users := range usersPerNode(cl, nodes, 1) {
		if _, err := cl.Subscribe(ctx, users[0], feed); err != nil {
			t.Fatal(err)
		}
	}
	before, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	streams[0].Close() // stream plane down, node alive

	ev := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/item",
	}}
	if delivered, err := cl.PublishEvent(ctx, ev); err != nil || delivered != 1 {
		t.Fatalf("publish with a's stream gone = (%d, %v), want 1 delivery on b", delivered, err)
	}
	if st := cl.Status()[0].State; st != "down" {
		t.Errorf("a's state after its stream went = %q, want down", st)
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if partial := after["cluster_publish_partial"] - before["cluster_publish_partial"]; partial != 1 {
		t.Errorf("cluster_publish_partial advanced by %v, want 1", partial)
	}
	body, err := reefclient.New(nodes[0].url()).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{`route="events"`, `route="events:batch"`} {
		if strings.Contains(body, route) {
			t.Errorf("a's REST surface served a publish (%s): the stream's failure was repeated over REST", route)
		}
	}
}

// TestClusterStreamClicks pins that click batches ride the stream
// plane: every click lands on its owner, the accepted count matches,
// and each node's stream clicks counter equals the clicks it owns, so
// REST carried none of them.
func TestClusterStreamClicks(t *testing.T) {
	ctx := context.Background()
	cl, nodes, streams := startStreamCluster(t, 3, nil)
	byNode := usersPerNode(cl, nodes, 3)

	var clicks []reef.Click
	owned := make(map[string]int)
	for id, users := range byNode {
		for _, u := range users {
			for j := 0; j < 5; j++ {
				clicks = append(clicks, reef.Click{User: u, URL: "http://site.test/p.html", At: t0.Add(time.Duration(j) * time.Minute)})
				owned[id]++
			}
		}
	}
	accepted, err := cl.IngestClicks(ctx, clicks)
	if err != nil || accepted != len(clicks) {
		t.Fatalf("IngestClicks = (%d, %v), want %d", accepted, err, len(clicks))
	}
	for i, n := range nodes {
		stats, err := n.dep.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats["clicks_stored"] != float64(owned[n.id]) {
			t.Errorf("node %s stores %v clicks, want the %d of its users", n.id, stats["clicks_stored"], owned[n.id])
		}
		if got := streams[i].Metrics().Counter(metrics.StreamClicksIn.Name).Value(); got != int64(owned[n.id]) {
			t.Errorf("node %s %s = %d, want %d", n.id, metrics.StreamClicksIn.Name, got, owned[n.id])
		}
	}
}

// fakeStream stands in for one node's stream listener: it answers each
// hello with reply and counts the clicks frames it reads across all
// connections, closing a connection on its first one — what a node
// does that predates the clicks op, or that dies mid-frame.
type fakeStream struct {
	ln     net.Listener
	hellos atomic.Int64
	clicks atomic.Int64
	wg     sync.WaitGroup
}

func startFakeStream(t *testing.T, reply string) *fakeStream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeStream{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer conn.Close()
				f.serve(conn, reply)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeStream) serve(conn net.Conn, reply string) {
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
			f.hellos.Add(1)
			if _, err := conn.Write(durable.Record{Op: durable.OpStreamHello, Payload: []byte(reply)}.AppendEncoded(nil)); err != nil {
				return
			}
		case durable.OpStreamClicks:
			f.clicks.Add(1)
			return
		}
	}
}

// startFakeStreamNode boots one real node (REST alive) whose configured
// stream address is a fake answering reply, and a router over it.
func startFakeStreamNode(t *testing.T, reply string) (*reefcluster.Cluster, *testNode, *fakeStream) {
	t.Helper()
	node := startTestNode(t, "a", 0, testWeb(71))
	fake := startFakeStream(t, reply)
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         []reefcluster.Node{{ID: "a", BaseURL: node.url(), StreamAddr: fake.ln.Addr().String()}},
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl, node, fake
}

// TestClusterStreamClicksMixedVersions pins the mixed-version rule: a
// node whose stream hello lacks the clicks capability (built before the
// verb) is sent the clicks frame anyway, kills the connection on it, and
// the router reports the failure instead of repeating the batch over
// REST.
func TestClusterStreamClicksMixedVersions(t *testing.T) {
	ctx := context.Background()
	cl, node, fake := startFakeStreamNode(t, `{"proto":1,"node":"a"}`)
	clicks := []reef.Click{
		{User: "u1", URL: "http://site.test/a.html", At: t0},
		{User: "u2", URL: "http://site.test/b.html", At: t0},
	}
	if _, err := cl.IngestClicks(ctx, clicks); err == nil {
		t.Fatal("IngestClicks succeeded though the old stream refused the clicks frame")
	}
	stats, err := node.dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["clicks_stored"] != 0 {
		t.Errorf("clicks_stored = %v, want 0: the batch was repeated over REST", stats["clicks_stored"])
	}
	if fake.hellos.Load() != 1 || fake.clicks.Load() != 1 {
		t.Errorf("old stream saw %d hellos and %d clicks frames, want 1 and 1", fake.hellos.Load(), fake.clicks.Load())
	}
}

// TestClusterStreamClicksNeverResent pins that the router never repeats
// a click batch: the node's stream reads the frame and dies before the
// ack, so the clicks may have landed, and the router reports the
// failure instead of sending the batch again over REST or a new stream.
func TestClusterStreamClicksNeverResent(t *testing.T) {
	ctx := context.Background()
	cl, node, fake := startFakeStreamNode(t, `{"proto":1,"node":"a","clicks":true}`)
	if _, err := cl.IngestClicks(ctx, []reef.Click{{User: "u1", URL: "http://site.test/a.html", At: t0}}); err == nil {
		t.Fatal("IngestClicks succeeded though the stream died before the ack")
	}
	if got := fake.clicks.Load(); got != 1 {
		t.Errorf("stream read %d clicks frames, want exactly 1", got)
	}
	stats, err := node.dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["clicks_stored"] != 0 {
		t.Errorf("clicks_stored = %v, want 0: the batch was repeated over REST", stats["clicks_stored"])
	}
}

// TestClusterPublishSkipSemantics pins what a publish means when nodes
// are down (the fanOut skip-path audit): the publish succeeds on the
// survivors, every skipped node bumps cluster_publish_skips, the
// publish itself bumps cluster_publish_partial, and only a publish that
// reaches zero nodes fails — with the typed ErrNodeDown.
func TestClusterPublishSkipSemantics(t *testing.T) {
	ctx := context.Background()
	web := testWeb(72)
	cl, nodes := startCluster(t, 3, web)
	byNode := usersPerNode(cl, nodes, 1)

	feed := feedURLs(web)[0]
	for _, users := range byNode {
		if _, err := cl.Subscribe(ctx, users[0], feed); err != nil {
			t.Fatal(err)
		}
	}
	before, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	nodes[2].kill(t)
	waitForState(t, cl, nodes[2].id, "down")

	ev := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/item",
	}}
	delivered, err := cl.PublishEvent(ctx, ev)
	if err != nil {
		t.Fatalf("publish with one node down: %v (partial fan-out must succeed)", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (the down node's subscriber is unreachable)", delivered)
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if skips := after["cluster_publish_skips"] - before["cluster_publish_skips"]; skips < 1 {
		t.Errorf("cluster_publish_skips advanced by %v, want >= 1: the skipped node must be accounted", skips)
	}
	if partial := after["cluster_publish_partial"] - before["cluster_publish_partial"]; partial < 1 {
		t.Errorf("cluster_publish_partial advanced by %v, want >= 1: a partial publish must be visible", partial)
	}

	nodes[0].kill(t)
	nodes[1].kill(t)
	waitForState(t, cl, nodes[0].id, "down")
	waitForState(t, cl, nodes[1].id, "down")
	if _, err := cl.PublishEvent(ctx, ev); !errors.Is(err, reefcluster.ErrNodeDown) {
		t.Fatalf("publish with all nodes down = %v, want ErrNodeDown", err)
	}
}

// waitForState blocks until the prober reports the node in the wanted
// state.
func waitForState(t *testing.T, cl *reefcluster.Cluster, id, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range cl.Status() {
			if s.Node.ID == id && s.State == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %s never reached state %q", id, want)
}

// TestStreamUpgradeRefusedFailsClosed pins the mixed-version rule for a
// node older than the stream route, which answers the upgrade with 404:
// over a base-URL stream client, publish, clicks, fetch and ack each
// fail with the node's StatusUnsupported verdict, none is repeated over
// REST, and a router that publishes to the node keeps it up.
func TestStreamUpgradeRefusedFailsClosed(t *testing.T) {
	ctx := context.Background()
	node := startTestNode(t, "a", 0, testWeb(75))
	h := reefhttp.NewHandler(node.dep, nil, reefhttp.WithNodeID("a"))
	var rest atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case reefstream.UpgradePath:
			http.NotFound(w, r)
			return
		case "/v1/healthz", "/v1/readyz":
		default:
			rest.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(old.Close)

	unsupported := func(what string, err error) {
		t.Helper()
		var se *reefstream.StatusError
		if !errors.As(err, &se) || se.Status != reefstream.StatusUnsupported || !strings.Contains(se.Message, `node "a"`) {
			t.Errorf("%s = %v, want a StatusUnsupported verdict naming node a", what, err)
		}
	}
	c := reefclient.New(old.URL, reefclient.WithTransport(reefstream.NewClient(old.URL, reefstream.WithExpectNode("a"))))
	t.Cleanup(func() { c.Close() })
	ev := reef.Event{Attrs: map[string]string{"type": "feed-item", "feed": "http://site.test/f.xml"}}
	_, err := c.PublishEvent(ctx, ev)
	unsupported("PublishEvent", err)
	_, err = c.IngestClicks(ctx, []reef.Click{{User: "u1", URL: "http://site.test/a.html", At: t0}})
	unsupported("IngestClicks", err)
	_, err = c.FetchEvents(ctx, "u1", "s1", 8)
	unsupported("FetchEvents", err)
	unsupported("Ack", c.Ack(ctx, "u1", "s1", 1, false))
	if n := rest.Load(); n != 0 {
		t.Errorf("the old node's REST surface saw %d requests, want 0", n)
	}

	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         []reefcluster.Node{{ID: "a", BaseURL: old.URL, StreamAddr: old.URL}},
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	_, err = cl.PublishEvent(ctx, ev)
	unsupported("router PublishEvent", err)
	if st := cl.Status()[0].State; st != "up" {
		t.Errorf("node state after a refused upgrade = %q, want up", st)
	}
	if n := rest.Load(); n != 0 {
		t.Errorf("the old node's REST surface saw %d requests, want 0", n)
	}
}

// TestStreamUpgradeStartingDemotesNode pins that a node answering the
// stream upgrade with 503 "starting", as reefd does while its WAL
// replays, is a node fault and not the publish's answer: a router
// publish lands on the survivor, bumps cluster_publish_partial, and
// demotes the starting node.
func TestStreamUpgradeStartingDemotesNode(t *testing.T) {
	ctx := context.Background()
	web := testWeb(76)
	nodes := []*testNode{startTestNode(t, "a", 0, web), startTestNode(t, "b", 0, web)}
	h := reefhttp.NewHandler(nodes[1].dep, nil, reefhttp.WithNodeID("b"))
	starting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != reefstream.UpgradePath {
			h.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":{"code":"unavailable","message":"starting: recovery replay in progress"}}`+"\n")
	}))
	t.Cleanup(starting.Close)
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes: []reefcluster.Node{
			{ID: "a", BaseURL: nodes[0].url(), StreamAddr: nodes[0].url()},
			{ID: "b", BaseURL: starting.URL, StreamAddr: starting.URL},
		},
		ProbeInterval: time.Hour,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	feed := feedURLs(web)[0]
	for _, users := range usersPerNode(cl, nodes, 1) {
		if _, err := cl.Subscribe(ctx, users[0], feed); err != nil {
			t.Fatal(err)
		}
	}
	before, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	ev := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/item",
	}}
	if delivered, err := cl.PublishEvent(ctx, ev); err != nil || delivered != 1 {
		t.Fatalf("publish with b starting = (%d, %v), want 1 delivery on a", delivered, err)
	}
	if st := cl.Status()[1].State; st != "down" {
		t.Errorf("b's state after a 503 on the upgrade = %q, want down", st)
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if partial := after["cluster_publish_partial"] - before["cluster_publish_partial"]; partial != 1 {
		t.Errorf("cluster_publish_partial advanced by %v, want 1", partial)
	}
}
