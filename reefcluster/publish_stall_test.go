package reefcluster_test

import (
	"context"
	"testing"
	"time"

	"reef"
	"reef/internal/metrics"
)

// TestClusterStreamPublishStallDemotes pins what a publish does when a
// node's stream stops acking: once the round trip runs past CallTimeout
// the node is demoted and skipped, like a fetch or ack timeout, and the
// publish is not repeated over REST, whose surface is healthy here.
func TestClusterStreamPublishStallDemotes(t *testing.T) {
	ctx := context.Background()
	sc := startStallCluster(t, 100*time.Millisecond)
	cl := sc.cl
	victim := sc.nodes[1]
	ev := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feedURLs(testWeb(73))[0], "title": "t", "link": "http://x.test/item",
	}}
	// Open the stream connections: a dial into the stalled listener
	// would fail its handshake, not the round trip this test stalls.
	if _, err := cl.PublishEvent(ctx, ev); err != nil {
		t.Fatal(err)
	}
	published := func() float64 {
		st, err := victim.dep.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st[metrics.BrokerPublished.Key]
	}
	before, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	publishedBefore := published()

	sc.gate.stall() // the stream stalls; REST stays healthy
	if _, err := cl.PublishEvent(ctx, ev); err != nil {
		t.Fatalf("publish with one stream stalled: %v (the other node must take it)", err)
	}
	if st := sc.victimState(); st != "down" {
		t.Errorf("node %s is %q after its stream publish ran past CallTimeout, want down", sc.victim, st)
	}
	if got := published(); got != publishedBefore {
		t.Errorf("node %s published %v events across the stall, want %v: the publish was repeated over REST", sc.victim, got, publishedBefore)
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := after["cluster_publish_skips"] - before["cluster_publish_skips"]; d < 1 {
		t.Errorf("cluster_publish_skips advanced by %v, want >= 1", d)
	}
}
