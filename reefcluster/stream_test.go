package reefcluster_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"reef"
	"reef/internal/metrics"
	"reef/reefcluster"
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

// TestClusterStreamFallsBackToREST pins the resilience contract: a node
// whose stream listener is gone (but whose REST surface is alive) still
// receives publishes over REST, without being demoted.
func TestClusterStreamFallsBackToREST(t *testing.T) {
	ctx := context.Background()
	cl, nodes, streams := startStreamCluster(t, 2, nil)
	byNode := usersPerNode(cl, nodes, 1)

	feed := feedURLs(testWeb(71))[0]
	for _, users := range byNode {
		if _, err := cl.Subscribe(ctx, users[0], feed); err != nil {
			t.Fatal(err)
		}
	}
	streams[0].Close() // stream plane down, node alive

	ev := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/item",
	}}
	delivered, err := cl.PublishEvent(ctx, ev)
	if err != nil {
		t.Fatalf("PublishEvent with one stream down: %v", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 — the streamless node must land via REST", delivered)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["nodes_up"] != 2 {
		t.Errorf("nodes_up = %v, want 2 (a dead stream listener is not a dead node)", stats["nodes_up"])
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
