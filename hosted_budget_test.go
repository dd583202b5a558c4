//go:build !race

package reef_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"reef"
)

// hostedAllocsPerDelivery is the allocation budget of one delivery to a
// warm best-effort hosted subscription: allocations per delivered event
// for PublishEvent of one event that 200 full sidebars show, match,
// display and eviction feedback included. Measured 0.010 (2 allocations
// per publish, none per delivery), with a stated slack of 0.04: one
// allocation more per delivery reads 1.01.
const hostedAllocsPerDelivery = 0.010 + 0.04

// hostedBytesPerSub is the heap budget of one hosted best-effort
// subscription whose user's sidebar is full at the default 20 items:
// index, broker, frontend and ring, and the events the ring holds on to.
// Measured 3 280 B (4 613 B while a slot held the whole event and every
// filter had its own entry), with a stated slack of 10 %.
const hostedBytesPerSub = 3280 * 1.10

// hostedDeployment opens a memory-backed centralized deployment and
// places one best-effort subscription for each of users users, user i on
// feed i % feeds.
func hostedDeployment(t *testing.T, users, feeds int) (*reef.Centralized, func(feed int) reef.Event) {
	t.Helper()
	dep, err := reef.NewCentralized(reef.WithFetcher(testWeb(52)), reef.WithPollInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	feedURL := func(i int) string { return fmt.Sprintf("http://f%03d.test/feed.xml", i) }
	for u := 0; u < users; u++ {
		if _, err := dep.Subscribe(context.Background(), fmt.Sprintf("user-%04d", u), feedURL(u%feeds)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	event := func(feed int) reef.Event {
		n++
		return reef.Event{
			Attrs: map[string]string{
				"type": "feed-item", "feed": feedURL(feed),
				"title": fmt.Sprintf("story %d", n), "link": fmt.Sprintf("http://f%03d.test/story/%d.html", feed, n),
			},
			Payload: make([]byte, 64),
		}
	}
	return dep, event
}

// TestHostedDeliveryAllocBudget is the allocation row of a delivery to a
// hosted subscription: one event on a feed 200 users follow, every sidebar
// already full, so each delivery displays the event and evicts the oldest
// item with its feedback. The race detector changes allocation counts,
// hence the build tag.
func TestHostedDeliveryAllocBudget(t *testing.T) {
	const users = 200
	dep, event := hostedDeployment(t, users, 1)
	ctx := context.Background()
	ev := event(0)
	publish := func() {
		n, err := dep.PublishEvent(ctx, ev)
		if err != nil || n != users {
			t.Fatalf("PublishEvent = %d, %v; want %d deliveries", n, err, users)
		}
	}
	for range 25 { // fill every sidebar past its 20 items
		publish()
	}
	perDelivery := testing.AllocsPerRun(100, publish) / users
	t.Logf("%.3f allocs per delivery", perDelivery)
	if perDelivery > hostedAllocsPerDelivery {
		t.Errorf("a delivery allocates %.3f, budget %.3f", perDelivery, hostedAllocsPerDelivery)
	}
}

// TestHostedSubscriptionHeapBudget is the heap row of a hosted
// subscription: 2 000 users over 100 feeds, each user's default sidebar
// filled with 20 distinct events of its feed, measured as live heap after
// a collection against the empty deployment.
func TestHostedSubscriptionHeapBudget(t *testing.T) {
	const users, feeds = 2000, 100
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	dep, event := hostedDeployment(t, users, feeds)
	for range 20 {
		for f := 0; f < feeds; f++ {
			if _, err := dep.PublishEvent(context.Background(), event(f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	perSub := float64(live()-before) / users
	runtime.KeepAlive(dep)
	t.Logf("%.0f heap bytes per hosted subscription", perSub)
	if perSub > hostedBytesPerSub {
		t.Errorf("a hosted subscription holds %.0f heap bytes, budget %.0f", perSub, hostedBytesPerSub)
	}
}
