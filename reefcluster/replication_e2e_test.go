package reefcluster_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/durable/durabletest"
	"reef/internal/faulthttp"
	"reef/internal/replication"
	"reef/internal/websim"
	"reef/reefcluster"
)

// startReplCluster boots count nodes of the given shard count (0 means
// 1) that each run a replication manager with k replicas per user, plus a router configured with the
// same k. All listeners bind before any node boots, because every
// manager needs every peer's base URL up front. Each node also runs a
// binary stream listener, so publishes and reliable consumes ride the
// data plane across failovers.
func startReplCluster(t *testing.T, count, k, shards int, web *websim.Web) (*reefcluster.Cluster, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, count)
	lns := make([]net.Listener, count)
	peers := make([]replication.Node, count)
	cfgNodes := make([]reefcluster.Node, count)
	for i := range nodes {
		id := string(rune('a' + i))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = &testNode{
			id: id, dir: t.TempDir(), web: web, addr: ln.Addr().String(), replicas: k, shards: shards,
			streamLn: sln, streamAddr: sln.Addr().String(),
		}
		peers[i] = replication.Node{ID: id, BaseURL: "http://" + nodes[i].addr}
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: "http://" + nodes[i].addr, StreamAddr: nodes[i].streamAddr}
	}
	for i, n := range nodes {
		n.peers = peers
		n.boot(t, lns[i])
		n := n
		t.Cleanup(func() { n.shutdown() })
	}
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         cfgNodes,
		Replicas:      k,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		CallTimeout:   5 * time.Second,
		RetryBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl, nodes
}

// waitReplDrained blocks until every live node's outbound streams have
// zero pending entries toward every live peer. Streams toward `skip`
// (a dead node, "" for none) are allowed to hold a backlog.
func waitReplDrained(t *testing.T, nodes []*testNode, skip string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		drained := true
		for _, n := range nodes {
			if n.mgr == nil || n.id == skip {
				continue
			}
			for _, p := range n.mgr.Status().Peers {
				if p.Node == skip {
					continue
				}
				if p.Pending != 0 {
					drained = false
				}
			}
		}
		if drained {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				if n.mgr != nil {
					t.Logf("node %s replication status: %+v", n.id, n.mgr.Status())
				}
			}
			t.Fatal("replication streams never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nodeByID finds a test node in the fleet.
func nodeByID(t *testing.T, nodes []*testNode, id string) *testNode {
	t.Helper()
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	t.Fatalf("no node %q", id)
	return nil
}

// TestClusterReplicationFailoverE2E is the acceptance test of
// replicated placement: a 3-node cluster with k=1 loses a primary and
// its users keep being served by the promoted replica — reads answer
// from replicated state, writes land on the replica and queue for the
// dead node — then the old primary rejoins as a replica, absorbs the
// backlog, and holds byte-identical golden state.
//
// Timeline:
//
//  1. drive clicks, pipeline recommendations, an accept, best-effort
//     and reliable subscriptions through the router; publishes deliver
//     to primary AND replica copies of each subscription (warm-standby
//     fan-out: 3 subs × 2 nodes = 6)
//  2. wait until every outbound stream is fully acked, so the kill has
//     no unshipped tail (the async loss window is empty by design here)
//  3. kill the victim primary; one probe round demotes it
//  4. promotion: every call for the victim's users now routes to the
//     replica and succeeds — zero ErrNodeDown — including reliable
//     fetch/ack against the replica's retained events
//  5. outage writes through the router mutate the replica's slice and
//     queue for the dead node (observable as a pending backlog)
//  6. golden-capture the victim's users from the replica's deployment
//  7. restart the victim: WAL recovery + a fresh sender epoch; the
//     replica's stream resumes from its persisted position and drains
//     the backlog; the damped prober re-admits the node
//  8. golden-capture the same users from the rejoined node: the diff
//     must be byte-exact, and the router must have failed back to it
func TestClusterReplicationFailoverE2E(t *testing.T) {
	ctx := context.Background()
	web := testWeb(61)
	cl, nodes := startReplCluster(t, 3, 1, 0, web)
	byNode := usersPerNode(cl, nodes, 2)
	victim := nodes[1]
	vUsers := byNode[victim.id]

	// The victim's users replicate to the next slot in the ring.
	set := cl.ReplicaSetFor(vUsers[0])
	if len(set) != 2 || set[0].ID != victim.id {
		t.Fatalf("replica set for %s = %+v, want primary %s + 1 replica", vUsers[0], set, victim.id)
	}
	standby := nodeByID(t, nodes, set[1].ID)

	var allUsers []string
	for _, n := range nodes {
		allUsers = append(allUsers, byNode[n.id]...)
	}

	// --- 1. workload through the router -------------------------------
	at := t0
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for path := range s.Pages {
			for _, u := range allUsers {
				at = at.Add(time.Second)
				if _, err := cl.IngestClicks(ctx, []reef.Click{{User: u, URL: s.URL(path), At: at}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Pipeline compute runs on the victim only: the test needs
	// recommendations for the victim's users, and keeping the other
	// engines cold keeps the recommendation ledger's provenance
	// single-sourced for the byte-exact diff below.
	victim.dep.RunPipeline(at)
	accepted := false
	for _, u := range vUsers {
		recs, err := cl.Recommendations(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if !accepted && len(recs) > 0 {
			if err := cl.AcceptRecommendation(ctx, u, recs[0].ID); err != nil {
				t.Fatal(err)
			}
			accepted = true
		}
	}
	if !accepted {
		t.Fatal("pipeline produced no recommendations for the victim's users")
	}

	feeds := feedURLs(web)
	hot := feeds[len(feeds)-1]
	for _, n := range nodes {
		if _, err := cl.Subscribe(ctx, byNode[n.id][0], hot); err != nil {
			t.Fatal(err)
		}
	}
	// One reliable subscription on a victim user: retained events and
	// cursor acks must survive the failover.
	reliable, err := cl.Subscribe(ctx, vUsers[1], feeds[0], reef.WithGuarantee(reef.AtLeastOnce))
	if err != nil {
		t.Fatal(err)
	}

	// Shipping is asynchronous: wait for the subscription records to
	// land on the replicas before counting warm deliveries.
	waitReplDrained(t, nodes, "")

	// With k=1 every subscription lives on its primary AND its replica,
	// and a publish fans out to every up node: 3 hot subscribers on 2
	// nodes each deliver 6. The duplicate copies are not user-visible —
	// a user only ever reads through one routed node.
	hotEvent := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": hot, "title": "t", "link": "http://x.test/hot",
	}}
	if delivered, err := cl.PublishEvent(ctx, hotEvent); err != nil || delivered != 6 {
		t.Fatalf("publish on full cluster = (%d, %v), want 6 warm deliveries", delivered, err)
	}
	relEvent := reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feeds[0], "title": "r1", "link": "http://x.test/r1",
	}}
	if _, err := cl.PublishEvent(ctx, relEvent); err != nil {
		t.Fatal(err)
	}
	evs, err := cl.FetchEvents(ctx, vUsers[1], reliable.ID, 10)
	if err != nil || len(evs) == 0 {
		t.Fatalf("reliable fetch before failover = (%d events, %v), want ≥ 1", len(evs), err)
	}
	if err := cl.Ack(ctx, vUsers[1], reliable.ID, evs[len(evs)-1].Seq, false); err != nil {
		t.Fatal(err)
	}
	// That fetch rode the victim's stream plane, not REST: the router
	// attaches a server-pushed consumer session on the owning node.
	if attached, delivered := victim.stream.ConsumeStats(); attached < 1 || delivered < 1 {
		t.Fatalf("victim stream consume stats = (%d attached, %d delivered), want a pushed delivery", attached, delivered)
	}

	// --- 2. drain, so the kill loses nothing --------------------------
	waitReplDrained(t, nodes, "")

	// --- 3. kill the victim; one probe round promotes the replica -----
	victim.kill(t)
	cl.ProbeNow(ctx)

	// --- 4. the victim's users are served by the promoted replica -----
	if s := cl.Status()[1].State; s != "down" {
		t.Fatalf("victim state after probe = %s, want down", s)
	}
	// NodeFor still names the (static, preferred) primary; the serving
	// node is the first up member of the replica set — the standby.
	for _, u := range vUsers {
		if cl.NodeFor(u).ID != victim.id {
			t.Fatalf("NodeFor(%s) = %s, want static primary %s", u, cl.NodeFor(u).ID, victim.id)
		}
		subs, err := cl.Subscriptions(ctx, u)
		if err != nil {
			t.Fatalf("subscriptions for %s after failover: %v", u, err)
		}
		if u == byNode[victim.id][0] && len(subs) == 0 {
			t.Fatalf("replicated subscriptions for %s missing on the replica", u)
		}
		if _, err := cl.Recommendations(ctx, u); err != nil {
			t.Fatalf("recommendations for %s after failover: %v", u, err)
		}
	}
	// Publishes keep delivering: the 2 survivors hold 4 live copies of
	// the 3 hot subscriptions (a's on a, b's on its replica c, c's on c
	// and its replica a).
	if delivered, err := cl.PublishEvent(ctx, hotEvent); err != nil || delivered != 4 {
		t.Fatalf("publish after kill = (%d, %v), want 4 deliveries", delivered, err)
	}

	// Reliable delivery fails over too: the replica retained the stream,
	// the replicated cursor ack already cleared r1, and a new event is
	// fetchable and ackable against the replica.
	if _, err := cl.PublishEvent(ctx, reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feeds[0], "title": "r2", "link": "http://x.test/r2",
	}}); err != nil {
		t.Fatal(err)
	}
	evs, err = cl.FetchEvents(ctx, vUsers[1], reliable.ID, 10)
	if err != nil {
		t.Fatalf("reliable fetch after failover: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("reliable fetch after failover returned no events")
	}
	for _, ev := range evs {
		if ev.Event.Attrs["link"] == "http://x.test/r1" {
			t.Fatal("replica redelivered r1: the replicated cursor ack was lost")
		}
	}
	if err := cl.Ack(ctx, vUsers[1], reliable.ID, evs[len(evs)-1].Seq, false); err != nil {
		t.Fatalf("reliable ack after failover: %v", err)
	}
	// The consume stream healed across the promotion: the fetch above
	// attached a fresh pushed session on the standby's stream plane — the
	// victim's session died with its connection.
	if attached, delivered := standby.stream.ConsumeStats(); attached < 1 || delivered < 1 {
		t.Fatalf("standby stream consume stats after promotion = (%d attached, %d delivered), want a pushed delivery", attached, delivered)
	}

	// --- 5. outage writes mutate the replica and queue for the victim -
	if _, err := cl.Subscribe(ctx, vUsers[0], feeds[1]); err != nil {
		t.Fatalf("subscribe during outage: %v", err)
	}
	if _, err := cl.IngestClicks(ctx, []reef.Click{
		{User: vUsers[0], URL: "http://outage.test/p", At: at.Add(time.Minute)},
	}); err != nil {
		t.Fatalf("ingest during outage: %v", err)
	}
	waitReplDrained(t, nodes, victim.id)
	backlog := false
	for _, p := range standby.mgr.Status().Peers {
		if p.Node == victim.id && p.Pending > 0 {
			backlog = true
		}
	}
	if !backlog {
		t.Fatal("outage writes built no backlog toward the dead primary")
	}

	// --- 6. golden state of the victim's slice, from the replica ------
	// Per-node stats gauges legitimately differ across nodes (each also
	// holds its own users), so the capture compares user state only.
	captureMid, err := durabletest.Capture(ctx, standby.dep, vUsers, nil)
	if err != nil {
		t.Fatal(err)
	}

	// --- 7. the old primary rejoins as a replica ----------------------
	victim.restart(t)
	deadline := time.Now().Add(10 * time.Second)
	for cl.Status()[1].State != "up" {
		if time.Now().After(deadline) {
			t.Fatal("restarted node never re-admitted by the damped prober")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitReplDrained(t, nodes, "")

	// --- 8. byte-exact recovered state and fail-back ------------------
	captureAfter, err := durabletest.Capture(ctx, victim.dep, vUsers, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := durabletest.Diff(captureMid, captureAfter)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("rejoined primary's state differs from the promoted replica's:\n%s", diff)
	}
	// Static preference order means the router fails back automatically
	// (pinned by TestClusterPromotionWalk); here the rejoined primary
	// must serve the outage subscription written on the replica.
	subs, err := cl.Subscriptions(ctx, vUsers[0])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range subs {
		if s.FeedURL == feeds[1] {
			found = true
		}
	}
	if !found {
		t.Fatalf("outage subscription missing after rejoin: %+v", subs)
	}
}

// TestClusterReplicationWholeSetDown pins the k>0 failure shape: when a
// user's primary AND every replica are gone, calls fail with a
// NodeDownError naming the primary.
func TestClusterReplicationWholeSetDown(t *testing.T) {
	ctx := context.Background()
	web := testWeb(62)
	cl, nodes := startReplCluster(t, 3, 1, 0, web)
	byNode := usersPerNode(cl, nodes, 1)
	victim := nodes[0]
	u := byNode[victim.id][0]
	set := cl.ReplicaSetFor(u)

	nodeByID(t, nodes, set[0].ID).kill(t)
	nodeByID(t, nodes, set[1].ID).kill(t)
	cl.ProbeNow(ctx)

	var down *reefcluster.NodeDownError
	if _, err := cl.Subscriptions(ctx, u); !errors.As(err, &down) {
		t.Fatalf("whole set down = %v, want NodeDownError", err)
	}
	if down.Node != set[0].ID {
		t.Fatalf("NodeDownError.Node = %s, want the primary %s", down.Node, set[0].ID)
	}
}

// TestClusterForwardFaultRetry drives the router through the shared
// fault-injecting transport: a transient connection error on the first
// forwarded call is absorbed by the client's retry, without demoting
// the node.
func TestClusterForwardFaultRetry(t *testing.T) {
	ctx := context.Background()
	web := testWeb(63)
	nodes := []*testNode{startTestNode(t, "a", 0, web)}
	ft := faulthttp.New(http.DefaultTransport,
		// Probes hit /healthz//readyz only, so the scripted fault is
		// consumed by the forwarded call, deterministically.
		&faulthttp.Fault{Match: "/v1/subscriptions", First: 1, Err: faulthttp.ErrInjected})
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         []reefcluster.Node{{ID: "a", BaseURL: nodes[0].url()}},
		ProbeInterval: 25 * time.Millisecond,
		CallTimeout:   2 * time.Second,
		RetryBackoff:  time.Millisecond,
		HTTPClient:    &http.Client{Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	if _, err := cl.Subscriptions(ctx, "u"); err != nil {
		t.Fatalf("forwarded call with one injected fault = %v, want retried success", err)
	}
	if cl.Status()[0].State != "up" {
		t.Fatalf("node state after absorbed fault = %s, want up", cl.Status()[0].State)
	}
	if ft.Calls() < 2 {
		t.Fatalf("transport saw %d calls, want the faulted attempt plus its retry", ft.Calls())
	}
}

// TestReplicationLinkPinsReceiverIdentity pins the link's identity rule:
// in a's seed list b's ID points at the URL of another node, c, whose
// 101 names it "c". a refuses that link, ships c nothing, and reports
// the mismatch in its status for b, while c's state stays as it was.
func TestReplicationLinkPinsReceiverIdentity(t *testing.T) {
	ctx := context.Background()
	web := testWeb(74)
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnC, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA, urlC := "http://"+lnA.Addr().String(), "http://"+lnC.Addr().String()
	a := &testNode{id: "a", dir: t.TempDir(), web: web, addr: lnA.Addr().String(), replicas: 1,
		peers: []replication.Node{{ID: "a", BaseURL: urlA}, {ID: "b", BaseURL: urlC}}}
	c := &testNode{id: "c", dir: t.TempDir(), web: web, addr: lnC.Addr().String(), replicas: 1,
		peers: []replication.Node{{ID: "a", BaseURL: urlA}, {ID: "c", BaseURL: urlC}}}
	c.boot(t, lnC)
	t.Cleanup(c.shutdown)
	a.boot(t, lnA)
	t.Cleanup(a.shutdown)

	users := []string{"u1", "u2"}
	before, err := durabletest.Capture(ctx, c.dep, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if _, err := a.dep.IngestClicks(ctx, []reef.Click{{User: u, URL: "http://site.test/a.html", At: t0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.dep.Subscribe(ctx, u, feedURLs(web)[0]); err != nil {
			t.Fatal(err)
		}
	}

	var st replication.PeerStatus
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st = a.mgr.Status().Peers[0]
		if st.LastError != "" || st.Shipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a's sender neither shipped to nor failed on b: %+v", st)
		}
	}
	if st.Node != "b" || st.Shipped != 0 || !strings.Contains(st.LastError, `dialed "b", reached "c"`) {
		t.Errorf("a's status for b = %+v, want nothing shipped and an identity mismatch naming c", st)
	}
	after, err := durabletest.Capture(ctx, c.dep, users, durabletest.DurableStatKeys)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(before, after); err != nil || diff != "" {
		t.Errorf("c applied records shipped for b: %s %v", diff, err)
	}
}
