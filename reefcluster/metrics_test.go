package reefcluster_test

import (
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"reef"
	"reef/internal/metrics"
	"reef/reefclient"
	"reef/reefcluster"
	"reef/reefhttp"
)

// TestClusterStatsShardedNodes pins the router's aggregation over
// sharded nodes: totals and the per-node breakdown are right, and no
// shard<i>_ key reaches the router, because shard i of one node has
// nothing to do with shard i of another.
func TestClusterStatsShardedNodes(t *testing.T) {
	ctx := context.Background()
	web := testWeb(58)
	cl, nodes := startClusterK(t, 3, 0, 2, web)
	byNode := usersPerNode(cl, nodes, 3)

	// Node i stores i+1 clicks, so a breakdown mixed up across nodes
	// shows.
	var clicks []reef.Click
	for i, n := range nodes {
		for _, u := range byNode[n.id][:i+1] {
			clicks = append(clicks, reef.Click{User: u, URL: "http://site.test/" + u, At: t0})
		}
	}
	if accepted, err := cl.IngestClicks(ctx, clicks); err != nil || accepted != len(clicks) {
		t.Fatalf("IngestClicks = (%d, %v), want %d", accepted, err, len(clicks))
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[metrics.ClicksStored.Key]; got != float64(len(clicks)) {
		t.Errorf("clicks_stored = %v, want %d", got, len(clicks))
	}
	if got := stats[metrics.Shards.Key]; got != 6 {
		t.Errorf("shards = %v, want 6 (three nodes of two)", got)
	}
	for i, n := range nodes {
		if got := stats["node_"+n.id+"_"+metrics.ClicksStored.Key]; got != float64(i+1) {
			t.Errorf("node %s clicks_stored = %v, want %d", n.id, got, i+1)
		}
		if got := stats["node_"+n.id+"_"+metrics.Shards.Key]; got != 2 {
			t.Errorf("node %s shards = %v, want 2", n.id, got)
		}
	}
	shardKey := regexp.MustCompile(`^shard[0-9]+_`)
	for k := range stats {
		if shardKey.MatchString(k) {
			t.Errorf("router stats carry the node-local key %s = %v", k, stats[k])
		}
	}
}

// TestScrapeFamiliesAreDefs scrapes /v1/metrics from a 3-shard node
// with a replication manager mounted, a distributed node, and a router
// over three 2-shard nodes. On each, every TYPE line names a family of
// metrics.Defs with its declared kind, no family or series is rendered
// twice, and shard labels appear on node scrapes only.
func TestScrapeFamiliesAreDefs(t *testing.T) {
	ctx := context.Background()
	web := testWeb(59)
	feed := feedURLs(web)[0]

	// A 3-shard node beside a k=1 peer, with traffic on every shard.
	repl, replNodes := startReplCluster(t, 2, 1, 3, web)
	node := replNodes[0]
	var clicks []reef.Click
	for _, u := range usersPerNode(repl, replNodes, 6)[node.id] {
		clicks = append(clicks, reef.Click{User: u, URL: "http://site.test/" + u, At: t0})
		if _, err := node.dep.Subscribe(ctx, u, feed, reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.dep.IngestClicks(ctx, clicks); err != nil {
		t.Fatal(err)
	}
	node.dep.RunPipeline(t0)
	node.dep.PollFeeds(ctx, t0)
	body, err := reefclient.New(node.url()).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !checkScrape(t, "3-shard node", body) {
		t.Error("3-shard node scrape has no shard breakdown")
	}
	for _, want := range []string{
		"# TYPE " + metrics.ReplicationLagP99Micros.Name + " gauge",
		metrics.ClicksReceived.Name + " ",
		metrics.BrokerPublished.Name + " ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("3-shard node scrape lacks %q", want)
		}
	}

	// A distributed node.
	dist, err := reef.NewDistributed(reef.WithFetcher(web))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dist.Close() })
	if _, err := dist.Subscribe(ctx, "dave", feed); err != nil {
		t.Fatal(err)
	}
	distSrv := httptest.NewServer(reefhttp.NewHandler(dist, nil))
	t.Cleanup(distSrv.Close)
	if body, err = reefclient.New(distSrv.URL).Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	checkScrape(t, "distributed node", body)
	if !strings.Contains(body, metrics.DistributedSubs.Name+" 1") {
		t.Errorf("distributed scrape lacks %s 1", metrics.DistributedSubs.Name)
	}

	// A router over three 2-shard nodes, served as reefd's router mode
	// serves it: the router and its REST handler share one registry.
	nodes := make([]*testNode, 3)
	cfgNodes := make([]reefcluster.Node, len(nodes))
	for i := range nodes {
		id := string(rune('a' + i))
		nodes[i] = startTestNode(t, id, 2, web)
		cfgNodes[i] = reefcluster.Node{ID: id, BaseURL: nodes[i].url()}
	}
	reg := metrics.NewRegistry()
	cl, err := reefcluster.New(reefcluster.Config{Nodes: cfgNodes, Metrics: reg, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	clicks = clicks[:0]
	for _, users := range usersPerNode(cl, nodes, 2) {
		for _, u := range users {
			clicks = append(clicks, reef.Click{User: u, URL: "http://site.test/" + u, At: t0})
		}
	}
	if _, err := cl.IngestClicks(ctx, clicks); err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(reefhttp.NewHandler(cl, nil, reefhttp.WithMetrics(reg)))
	t.Cleanup(routerSrv.Close)
	if body, err = reefclient.New(routerSrv.URL).Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if checkScrape(t, "router", body) {
		t.Error("router scrape carries shard-labelled series")
	}
	for _, want := range []string{
		metrics.ClicksStored.Name + " 6",
		metrics.ClicksStored.Name + `{node="a"} 2`,
		metrics.ClusterForwardErrors.Name + " 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("router scrape lacks %q", want)
		}
	}
}

// checkScrape checks one exposition against the Def table and reports
// whether any series carries a shard label.
func checkScrape(t *testing.T, name, body string) (sharded bool) {
	t.Helper()
	kinds := make(map[string]metrics.Kind, len(metrics.Defs))
	for _, d := range metrics.Defs {
		kinds[d.Name] = d.Kind
	}
	typed := make(map[string]bool)
	series := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ := strings.Cut(rest, " ")
			if k, ok := kinds[family]; !ok {
				t.Errorf("%s: family %s is not in metrics.Defs", name, family)
			} else if k.String() != kind {
				t.Errorf("%s: family %s typed %s, declared %s", name, family, kind, k)
			}
			if typed[family] {
				t.Errorf("%s: family %s rendered twice", name, family)
			}
			typed[family] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, _, _ := strings.Cut(line, " ")
		if series[s] {
			t.Errorf("%s: series %s rendered twice", name, s)
		}
		series[s] = true
		sharded = sharded || strings.Contains(s, `shard="`)
	}
	return sharded
}
