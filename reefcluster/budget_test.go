//go:build !race

package reefcluster_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/reefcluster"
	"reef/reefstream"
)

// routerPublishAllocsPerEvent is the router leg's count budget: the
// whole process's allocations per published event for one
// Cluster.PublishBatch of 32 events on a 3-node in-process stream
// cluster — router, three stream clients, three stream servers and the
// three nodes' publish apply. Measured 9.50 (the count is steady run
// to run; 16.16 before each node decoded straight into the engine's
// event), slack 1.5: a change that adds an allocation per event on
// every node's leg fails it.
const routerPublishAllocsPerEvent = 9.50 + 1.5

// TestRouterPublishAllocBudget counts what one router publish costs in
// allocations per event. The race detector changes allocation counts,
// hence the build tag.
func TestRouterPublishAllocBudget(t *testing.T) {
	ctx := context.Background()
	web := testWeb(74)
	feed := feedURLs(web)[0]
	cfgNodes := make([]reefcluster.Node, 3)
	for i := range cfgNodes {
		id := string(rune('a' + i))
		n := startTestNode(t, id, 0, web)
		srv, err := reefstream.Listen("127.0.0.1:0", n.dep, reefstream.WithNode(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: n.url(), StreamAddr: srv.Addr().String()}
	}
	// The prober sleeps through the measurement: its HTTP round trips
	// would count as publish allocations.
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
	if _, err := cl.Subscribe(ctx, "budget-user", feed); err != nil {
		t.Fatal(err)
	}

	const batch = 32
	payload := []byte(strings.Repeat("x", 1000))
	evs := make([]reef.Event, batch)
	for i := range evs {
		evs[i] = reef.Event{Source: "budget", Payload: payload, Attrs: map[string]string{
			"type": "feed-item", "feed": feed, "title": fmt.Sprintf("t%d", i), "link": fmt.Sprintf("http://x.test/%d", i),
		}}
	}
	publish := func() {
		if _, err := cl.PublishBatch(ctx, evs); err != nil {
			t.Fatalf("PublishBatch: %v", err)
		}
	}
	publish() // dial, handshake and warm the pools
	got := testing.AllocsPerRun(200, publish) / batch
	t.Logf("allocations per published event: %.2f", got)
	if got > routerPublishAllocsPerEvent {
		t.Errorf("Cluster.PublishBatch = %.2f allocations per event, budget %.2f", got, routerPublishAllocsPerEvent)
	}
}
