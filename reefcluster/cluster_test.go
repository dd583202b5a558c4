package reefcluster_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"reef"
	"reef/internal/durable/durabletest"
	"reef/internal/replication"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/reefcluster"
	"reef/reefhttp"
	"reef/reefstream"
)

var t0 = time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)

// testWeb builds a small synthetic web shared by every node of a test
// cluster (nodes only read it: the tests drive pipelines explicitly).
func testWeb(seed int64) *websim.Web {
	model := topics.NewModel(seed, 4, 10, 12)
	wcfg := websim.DefaultConfig(seed, t0)
	wcfg.NumContentServers = 10
	wcfg.NumAdServers = 2
	wcfg.NumSpamServers = 1
	wcfg.NumMultimediaServers = 1
	wcfg.FeedProb = 0.6
	return websim.Generate(wcfg, model)
}

// testNode is one restartable cluster member: a file-backed Centralized
// deployment behind the REST surface on a stable address, so a restart
// after a kill comes back where the cluster expects it.
type testNode struct {
	id   string
	dir  string
	addr string
	web  *websim.Web
	dep  *reef.Centralized
	// shards is the node's engine shard count; 0 means 1.
	shards int
	srv    *http.Server
	ready  *reefhttp.Readiness
	done   chan struct{}

	// Replication wiring; zero on plain cluster tests. Set replicas and
	// peers before boot to run a replication.Manager alongside the node
	// (see startReplCluster in replication_e2e_test.go).
	replicas int
	peers    []replication.Node
	mgr      *replication.Manager

	// Stream data plane wiring; zero unless the cluster runs one. Set
	// streamLn (a pre-bound listener) before the first boot; restarts
	// rebind the recorded streamAddr so the cluster's static config
	// stays valid across a kill.
	streamLn   net.Listener
	streamAddr string
	stream     *reefstream.Server
}

// startTestNode boots a fresh node of the given shard count (0 means
// 1): new data dir, new listener.
func startTestNode(t *testing.T, id string, shards int, web *websim.Web) *testNode {
	t.Helper()
	n := &testNode{id: id, dir: t.TempDir(), web: web, shards: shards}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	n.boot(t, ln)
	t.Cleanup(func() { n.shutdown() })
	return n
}

// boot opens the deployment (recovering the node's own WAL) and serves
// it on the given listener, flipping readyz to ready only after the
// recovery replay in NewCentralized completed.
func (n *testNode) boot(t *testing.T, ln net.Listener) {
	t.Helper()
	dep, err := reef.NewCentralized(
		reef.WithFetcher(n.web),
		reef.WithDataDir(n.dir),
		reef.WithSyncPolicy(reef.SyncAlways),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
		reef.WithShards(max(n.shards, 1)),
	)
	if err != nil {
		t.Fatalf("node %s: %v", n.id, err)
	}
	n.dep = dep
	n.ready = reefhttp.NewReadiness()
	n.ready.SetReady()
	opts := []reefhttp.HandlerOption{reefhttp.WithReadiness(n.ready), reefhttp.WithNodeID(n.id)}
	if n.replicas > 0 {
		mgr, err := replication.New(replication.Options{
			Self:          n.id,
			Nodes:         n.peers,
			Replicas:      n.replicas,
			Applier:       dep,
			Dir:           filepath.Join(n.dir, "replication"),
			RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("node %s replication: %v", n.id, err)
		}
		n.mgr = mgr
		dep.SetReplicationTap(mgr.Offer)
		opts = append(opts, reefhttp.WithReplication(mgr))
	}
	n.srv = &http.Server{Handler: reefhttp.NewHandler(dep, nil, opts...)}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln)
	}()
	if n.streamLn != nil || n.streamAddr != "" {
		sln := n.streamLn
		n.streamLn = nil
		if sln == nil {
			// Restart after a kill: rebind the original stream address,
			// retrying briefly in case the port lingers in TIME_WAIT.
			var err error
			for i := 0; i < 50; i++ {
				if sln, err = net.Listen("tcp", n.streamAddr); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if sln == nil {
				t.Fatalf("node %s rebind stream %s: %v", n.id, n.streamAddr, err)
			}
		}
		n.streamAddr = sln.Addr().String()
		n.stream = reefstream.NewServer(sln, dep, reefstream.WithNode(n.id))
	}
}

// url is the node's API root.
func (n *testNode) url() string { return "http://" + n.addr }

// kill simulates the node dying: the deployment crashes without
// flushing buffered WAL appends and the listener drops every
// connection.
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	if err := durabletest.Crash(n.dep); err != nil {
		t.Fatalf("node %s crash: %v", n.id, err)
	}
	_ = n.srv.Close()
	<-n.done
	if n.stream != nil {
		n.stream.Close()
		n.stream = nil
	}
	if n.mgr != nil {
		n.mgr.Close()
		n.mgr = nil
	}
	n.dep, n.srv = nil, nil
}

// restart brings a killed node back on its original address; the
// deployment recovers from the node's own WAL.
func (n *testNode) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatalf("node %s rebind %s: %v", n.id, n.addr, err)
	}
	n.boot(t, ln)
}

// shutdown releases whatever is still running (idempotent, for
// cleanup).
func (n *testNode) shutdown() {
	if n.srv != nil {
		_ = n.srv.Close()
		<-n.done
	}
	if n.stream != nil {
		n.stream.Close()
		n.stream = nil
	}
	if n.mgr != nil {
		n.mgr.Close()
	}
	if n.dep != nil {
		_ = n.dep.Close()
	}
}

// startCluster boots count nodes and a router over them with fast
// probes.
func startCluster(t *testing.T, count int, web *websim.Web) (*reefcluster.Cluster, []*testNode) {
	return startClusterK(t, count, 0, 0, web)
}

// startClusterK is startCluster with k routing replicas per user and
// nodes of the given shard count (0 means 1).
func startClusterK(t *testing.T, count, replicas, shards int, web *websim.Web) (*reefcluster.Cluster, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, count)
	cfgNodes := make([]reefcluster.Node, count)
	for i := range nodes {
		id := string(rune('a' + i))
		nodes[i] = startTestNode(t, id, shards, web)
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: nodes[i].url()}
	}
	cl, err := reefcluster.New(reefcluster.Config{
		Nodes:         cfgNodes,
		Replicas:      replicas,
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

// usersPerNode picks `per` users owned by each node, by hashing
// candidate names through the cluster's own placement.
func usersPerNode(cl *reefcluster.Cluster, nodes []*testNode, per int) map[string][]string {
	out := make(map[string][]string, len(nodes))
	for i := 0; len(out) < len(nodes) || shortest(out, nodes) < per; i++ {
		u := "user-" + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		id := cl.NodeFor(u).ID
		if len(out[id]) < per {
			out[id] = append(out[id], u)
		}
	}
	return out
}

func shortest(m map[string][]string, nodes []*testNode) int {
	min := 1 << 30
	for _, n := range nodes {
		if l := len(m[n.id]); l < min {
			min = l
		}
	}
	return min
}

// TestClusterConfigValidation pins the constructor's argument checks.
func TestClusterConfigValidation(t *testing.T) {
	two := []reefcluster.Node{{ID: "a", BaseURL: "http://x.test"}, {ID: "b", BaseURL: "http://y.test"}}
	for _, tc := range []struct {
		name     string
		nodes    []reefcluster.Node
		replicas int
	}{
		{"no nodes", nil, 0},
		{"missing id", []reefcluster.Node{{BaseURL: "http://x.test"}}, 0},
		{"missing url", []reefcluster.Node{{ID: "a"}}, 0},
		{"duplicate id", []reefcluster.Node{{ID: "a", BaseURL: "http://x.test"}, {ID: "a", BaseURL: "http://y.test"}}, 0},
		{"duplicate url", []reefcluster.Node{{ID: "a", BaseURL: "http://x.test"}, {ID: "b", BaseURL: "http://x.test"}}, 0},
		{"negative replicas", two, -1},
		{"replicas >= nodes", two, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := reefcluster.New(reefcluster.Config{
				Nodes: tc.nodes, Replicas: tc.replicas, ProbeTimeout: 50 * time.Millisecond,
			})
			if !errors.Is(err, reef.ErrInvalidArgument) {
				t.Fatalf("New = %v, want ErrInvalidArgument", err)
			}
		})
	}
}

// TestClusterPromotionWalk pins the routing half of failover in
// isolation (no replication streams): with k=1, a user call walks the
// replica set and is served by the first Up member, returns to the
// primary on re-admission, and fails fast naming the primary only when
// the whole set is down.
func TestClusterPromotionWalk(t *testing.T) {
	ctx := context.Background()
	web := testWeb(56)
	cl, nodes := startClusterK(t, 3, 1, 0, web)
	byID := make(map[string]*testNode, len(nodes))
	for _, n := range nodes {
		byID[n.id] = n
	}

	// One user whose primary is nodes[?]; its replica is the next slot.
	user := usersPerNode(cl, nodes, 1)[nodes[0].id][0]
	set := cl.ReplicaSetFor(user)
	if len(set) != 2 || set[0].ID != nodes[0].id {
		t.Fatalf("ReplicaSetFor(%s) = %+v, want primary %s plus one replica", user, set, nodes[0].id)
	}
	primary, replica := byID[set[0].ID], byID[set[1].ID]

	feed := feedURLs(web)[0]
	primary.kill(t)
	cl.ProbeNow(ctx)
	if _, err := cl.Subscribe(ctx, user, feed); err != nil {
		t.Fatalf("Subscribe during failover: %v", err)
	}
	subs, err := replica.dep.Subscriptions(ctx, user)
	if err != nil || len(subs) != 1 {
		t.Fatalf("replica holds %d subscriptions (%v), want the promoted write", len(subs), err)
	}

	// Whole set down → typed error naming the PRIMARY.
	replica.kill(t)
	cl.ProbeNow(ctx)
	var down *reefcluster.NodeDownError
	if _, err := cl.Subscriptions(ctx, user); !errors.As(err, &down) || down.Node != primary.id {
		t.Fatalf("whole-set outage = %v, want NodeDownError{%s}", err, primary.id)
	}

	// Re-admission (flap damping wants consecutive up probes) fails the
	// user back to the primary: reads go there again, and since this
	// test runs no replication streams the promoted write is invisible.
	primary.restart(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl.ProbeNow(ctx)
		subs, err = cl.Subscriptions(ctx, user)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never re-admitted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(subs) != 0 {
		t.Fatalf("read after fail-back = %d subscriptions, want 0 (primary never saw the write)", len(subs))
	}
}

// TestClusterRoutesToOwningNode subscribes users through the cluster
// and verifies — against each node's in-process deployment — that every
// user's state landed exactly on the node the hash names, and nowhere
// else.
func TestClusterRoutesToOwningNode(t *testing.T) {
	ctx := context.Background()
	web := testWeb(51)
	cl, nodes := startCluster(t, 3, web)
	byNode := usersPerNode(cl, nodes, 2)

	feed := feedURLs(web)[0]
	for _, users := range byNode {
		for _, u := range users {
			if _, err := cl.Subscribe(ctx, u, feed); err != nil {
				t.Fatalf("Subscribe(%s): %v", u, err)
			}
		}
	}
	for _, owner := range nodes {
		for nodeID, users := range byNode {
			for _, u := range users {
				subs, err := owner.dep.Subscriptions(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				if nodeID == owner.id {
					want = 1
				}
				if len(subs) != want {
					t.Errorf("node %s holds %d subscriptions for %s (owner %s), want %d",
						owner.id, len(subs), u, nodeID, want)
				}
			}
		}
	}

	// Round-trip reads through the cluster agree.
	for _, users := range byNode {
		subs, err := cl.Subscriptions(ctx, users[0])
		if err != nil || len(subs) != 1 || subs[0].FeedURL != feed {
			t.Fatalf("Subscriptions(%s) = (%v, %v), want the placed feed", users[0], subs, err)
		}
	}
}

// TestClusterPublishFanOut places one subscriber per node and checks a
// cluster publish reaches all of them: the delivered count sums over
// nodes for both the single-event and the batch path.
func TestClusterPublishFanOut(t *testing.T) {
	ctx := context.Background()
	web := testWeb(52)
	cl, nodes := startCluster(t, 3, web)
	byNode := usersPerNode(cl, nodes, 1)

	feed := feedURLs(web)[0]
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

	// Validation failures are deterministic and fail the publish, not a
	// node.
	if _, err := cl.PublishEvent(ctx, reef.Event{Attrs: map[string]string{}}); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("invalid publish = %v, want ErrInvalidArgument", err)
	}
}

// TestClusterAggregation drives clicks through the cluster and checks
// Stats and StorageInfo aggregate with per-node breakdowns.
func TestClusterAggregation(t *testing.T) {
	ctx := context.Background()
	web := testWeb(53)
	cl, nodes := startCluster(t, 3, web)
	byNode := usersPerNode(cl, nodes, 1)

	var clicks []reef.Click
	for _, users := range byNode {
		clicks = append(clicks, reef.Click{User: users[0], URL: "http://site.test/page", At: t0})
	}
	accepted, err := cl.IngestClicks(ctx, clicks)
	if err != nil || accepted != len(clicks) {
		t.Fatalf("IngestClicks = (%d, %v), want %d", accepted, err, len(clicks))
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["clicks_stored"] != float64(len(clicks)) {
		t.Errorf("clicks_stored = %v, want %d", stats["clicks_stored"], len(clicks))
	}
	if stats["nodes"] != 3 || stats["nodes_up"] != 3 || stats["nodes_down"] != 0 {
		t.Errorf("node gauges = %v/%v/%v, want 3 up of 3", stats["nodes"], stats["nodes_up"], stats["nodes_down"])
	}
	var perNode float64
	for _, n := range nodes {
		perNode += stats["node_"+n.id+"_clicks_stored"]
	}
	if perNode != float64(len(clicks)) {
		t.Errorf("per-node clicks breakdown sums to %v, want %d", perNode, len(clicks))
	}

	info, err := cl.StorageInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "cluster" || len(info.Shards) != 3 {
		t.Fatalf("StorageInfo = %+v, want cluster backend with 3 node entries", info)
	}
	for i, n := range nodes {
		if info.Shards[i].Node != n.id || info.Shards[i].Backend != "file" {
			t.Errorf("node entry %d = %+v, want node %s on file backend", i, info.Shards[i], n.id)
		}
	}

	// A forced snapshot lands on every node.
	after, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after.Shards {
		if after.Shards[i].Generation != info.Shards[i].Generation+1 {
			t.Errorf("node %s generation = %d, want %d",
				after.Shards[i].Node, after.Shards[i].Generation, info.Shards[i].Generation+1)
		}
	}
}

// TestClusterDraining pins the draining leg of membership: a node whose
// readyz flips to draining stops being routed to — owned users fail
// fast, publishes skip it — and is re-admitted the moment it is ready
// again, all without the node's listener ever going away.
func TestClusterDraining(t *testing.T) {
	ctx := context.Background()
	web := testWeb(54)
	cl, nodes := startCluster(t, 3, web)
	byNode := usersPerNode(cl, nodes, 1)
	victim := nodes[1]

	feed := feedURLs(web)[0]
	for _, users := range byNode {
		if _, err := cl.Subscribe(ctx, users[0], feed); err != nil {
			t.Fatal(err)
		}
	}

	victim.ready.SetDraining()
	cl.ProbeNow(ctx)
	for _, s := range cl.Status() {
		want := "up"
		if s.Node.ID == victim.id {
			want = "draining"
		}
		if s.State != want {
			t.Fatalf("node %s state = %s, want %s", s.Node.ID, s.State, want)
		}
	}

	if _, err := cl.Subscriptions(ctx, byNode[victim.id][0]); !errors.Is(err, reefcluster.ErrNodeDown) {
		t.Fatalf("call for draining node's user = %v, want ErrNodeDown", err)
	}
	var down *reefcluster.NodeDownError
	err := cl.Unsubscribe(ctx, byNode[victim.id][0], feed)
	if !errors.As(err, &down) || down.Node != victim.id || down.State != "draining" {
		t.Fatalf("err = %v, want NodeDownError{%s draining}", err, victim.id)
	}

	delivered, err := cl.PublishEvent(ctx, reef.Event{Attrs: map[string]string{
		"type": "feed-item", "feed": feed, "title": "t", "link": "http://x.test/i",
	}})
	if err != nil || delivered != 2 {
		t.Fatalf("publish while draining = (%d, %v), want 2 deliveries from the other nodes", delivered, err)
	}

	victim.ready.SetReady()
	cl.ProbeNow(ctx)
	if _, err := cl.Subscriptions(ctx, byNode[victim.id][0]); err != nil {
		t.Fatalf("call after re-admission: %v", err)
	}
}

// TestClusterClosed pins the router's own closed behavior.
func TestClusterClosed(t *testing.T) {
	ctx := context.Background()
	web := testWeb(55)
	cl, _ := startCluster(t, 2, web)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := cl.Stats(ctx); !errors.Is(err, reef.ErrClosed) {
		t.Fatalf("Stats on closed cluster = %v, want ErrClosed", err)
	}
	if _, err := cl.Subscribe(ctx, "u", "http://f.test/a.xml"); !errors.Is(err, reef.ErrClosed) {
		t.Fatalf("Subscribe on closed cluster = %v, want ErrClosed", err)
	}
}

// feedURLs returns sorted absolute feed URLs of the synthetic web.
func feedURLs(web *websim.Web) []string {
	var out []string
	for _, s := range web.Servers(websim.KindContent) {
		for path := range s.Feeds {
			out = append(out, s.URL(path))
		}
	}
	if len(out) == 0 {
		panic("synthetic web has no feeds")
	}
	sort.Strings(out)
	return out
}
