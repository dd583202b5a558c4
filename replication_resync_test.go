package reef_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/durable/durabletest"
	"reef/internal/replication"
	"reef/internal/routing"
	"reef/internal/websim"
	"reef/reefhttp"
)

// recordLog is a node's replication applier that keeps every data
// record it applies from a peer's batches, and counts the batches and
// those that carry resync records.
type recordLog struct {
	*reef.Centralized
	batches, cuts atomic.Int64
	mu            sync.Mutex
	recs          []durable.Record
}

func (r *recordLog) keep(recs []durable.Record) {
	r.batches.Add(1)
	r.mu.Lock()
	r.recs = append(r.recs, recs[:len(recs)-1]...) // the last is the position
	r.mu.Unlock()
}

func (r *recordLog) ApplyReplicated(recs []durable.Record) error {
	r.keep(recs)
	return r.Centralized.ApplyReplicated(recs)
}

func (r *recordLog) ApplyReplicatedCut(recs []durable.Record) error {
	r.cuts.Add(1)
	r.keep(recs)
	return r.Centralized.ApplyReplicatedCut(recs)
}

// testCluster is one file-backed node per ID at k=1, each serving its
// REST surface with replication mounted over httptest.
type testCluster struct {
	deps []*recordLog
	mgrs []*replication.Manager
	// refuse makes the refused node answer 503 to node 0's link upgrades
	// while set; a link already up stays up.
	refuse atomic.Bool
}

// refusing is node 0's transport: while refuse is set, it answers a link
// upgrade to host with the 503 the node would give, in its place.
type refusing struct {
	host   string
	refuse *atomic.Bool
}

func (r refusing) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == r.host && r.refuse.Load() {
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Status: "503 Service Unavailable",
			Body: io.NopCloser(strings.NewReader("unavailable")), Request: req}, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

// startCluster starts the nodes, node 0's sender with the given Retain
// (0 for the default).
func startCluster(t *testing.T, web *websim.Web, ids []string, refused, retain int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var nodes []replication.Node
	var handlers []*atomic.Pointer[http.Handler]
	for i := range ids {
		h := new(atomic.Pointer[http.Handler])
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*h.Load()).ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		nodes = append(nodes, replication.Node{ID: ids[i], BaseURL: srv.URL})
		handlers = append(handlers, h)
	}
	for i, id := range ids {
		dep, err := reef.NewCentralized(
			reef.WithFetcher(web),
			reef.WithDataDir(filepath.Join(t.TempDir(), id)),
			reef.WithSyncPolicy(reef.SyncNever),
			reef.WithSnapshotEvery(-1),
			reef.WithPollInterval(time.Hour),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dep.Close() })
		app := &recordLog{Centralized: dep}
		opt := replication.Options{Self: id, Nodes: nodes, Replicas: 1, Applier: app, RetryInterval: 10 * time.Millisecond}
		if i == 0 {
			opt.Retain = retain
			opt.HTTPClient = &http.Client{Transport: refusing{host: strings.TrimPrefix(nodes[refused].BaseURL, "http://"), refuse: &tc.refuse}}
		}
		mgr, err := replication.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Close) // runs before the deployment closes
		dep.SetReplicationTap(mgr.Offer)
		var h http.Handler = reefhttp.NewHandler(dep, nil, reefhttp.WithReplication(mgr))
		handlers[i].Store(&h)
		tc.deps, tc.mgrs = append(tc.deps, app), append(tc.mgrs, mgr)
	}
	return tc
}

// waitShipped waits until node 0 has nothing queued for any peer and
// cond holds.
func (tc *testCluster) waitShipped(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var pending int64
		for _, p := range tc.mgrs[0].Status().Peers {
			pending += p.Pending
		}
		if pending == 0 && cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, tc.mgrs[0].Status().Peers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (tc *testCluster) stat(t *testing.T, node int, key string) float64 {
	t.Helper()
	st, err := tc.deps[node].Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st[key]
}

// TestReplicationShipsPastBodyLimit pins the byte bound on shipping: two
// nodes at k=1, b refusing a while a journals 40 click batches of 500
// clicks with ~1 KB URLs, about 20 MB of frames, more than one
// request body may carry. Whether b falls past a's Retain (resync) or
// not (backlog), the records reach b in several batches, each within
// the bound, and b ends up storing every click.
func TestReplicationShipsPastBodyLimit(t *testing.T) {
	const batches, perBatch = 40, 500
	for _, tt := range []struct {
		name   string
		retain int
	}{
		// The last batch overflows a queue of 39: one capture pins them all.
		{"resync", batches - 1},
		{"backlog", 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ctx := context.Background()
			tc := startCluster(t, testWeb(93), []string{"a", "b"}, 1, tt.retain)
			a := tc.deps[0]
			tc.refuse.Store(true)
			long := strings.Repeat("p", 1000)
			for i := range batches {
				clicks := make([]reef.Click, perBatch)
				for j := range clicks {
					clicks[j] = reef.Click{
						User: fmt.Sprintf("u%d", j%50),
						URL:  fmt.Sprintf("http://pages.test/%s/%d/%d", long, i, j),
						At:   dt0.Add(time.Duration(i*perBatch+j) * time.Millisecond),
					}
				}
				if _, err := a.IngestClicks(ctx, clicks); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(50 * time.Millisecond) // five retry intervals of refusal
			tc.refuse.Store(false)
			const want = batches * perBatch
			tc.waitShipped(t, "b to store every click", func() bool { return tc.stat(t, 1, "clicks_stored") == want })
			resyncs := tc.mgrs[0].Status().Peers[0].Resyncs
			if tt.retain > 0 && resyncs != 1 {
				t.Errorf("a resynced b %d times, want 1", resyncs)
			}
			if tt.retain == 0 && resyncs != 0 {
				t.Errorf("a resynced b %d times with its backlog in the queue, want 0", resyncs)
			}
			if n := tc.deps[1].batches.Load(); n < 2 {
				t.Errorf("b took %d batches, want several", n)
			}
		})
	}
}

// TestResyncShipsOnlyPeerShare pins one destination rule for offered
// records and resync cuts alike: on three nodes at k=1, a holds state
// for a user m of replica set {a, b} and a user f of {c, a}. b refuses
// a while a journals past its Retain, records that were meant for b
// among them, so a resyncs b. Afterwards b holds m's subscriptions,
// cursors, pending recommendations and clicks, and nothing of f's.
func TestResyncShipsOnlyPeerShare(t *testing.T) {
	ctx := context.Background()
	web := testWeb(94)
	ids := []string{"a", "b", "c"}
	tc := startCluster(t, web, ids, 1, 4)
	a, b := tc.deps[0], tc.deps[1]
	var m, f string
	for i := 0; m == "" || f == ""; i++ {
		u := fmt.Sprintf("u%d", i)
		switch s := routing.UserSlot(u, len(ids)); {
		case s == 0 && m == "":
			m = u
		case s == 2 && f == "":
			f = u
		}
	}
	users := []string{m, f}

	tc.refuse.Store(true)
	at := dt0
	mClicks := 0
	for _, s := range web.Servers(websim.KindContent) {
		if len(s.Feeds) == 0 {
			continue
		}
		for path := range s.Pages {
			for _, u := range users {
				at = at.Add(time.Second)
				if _, err := a.IngestClicks(ctx, []reef.Click{{User: u, URL: s.URL(path), At: at}}); err != nil {
					t.Fatal(err)
				}
				if u == m {
					mClicks++
				}
			}
		}
	}
	a.RunPipeline(at)
	feed := feedURLs(web)[0]
	for _, u := range users {
		if recs, err := a.Recommendations(ctx, u); err != nil || len(recs) == 0 {
			t.Fatalf("a holds %d pending recommendations for %s (%v), want some", len(recs), u, err)
		}
		if _, err := a.Subscribe(ctx, u, feed, reef.WithGuarantee(reef.AtLeastOnce)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.PublishEvent(ctx, reef.Event{Attrs: feedItemAttrs(feed, 1)}); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		evs, err := a.FetchEvents(ctx, u, feed, 10)
		if err != nil || len(evs) != 1 {
			t.Fatalf("%s fetched %d events (%v), want 1", u, len(evs), err)
		}
		if err := a.Ack(ctx, u, feed, evs[0].Seq, false); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // five retry intervals of refusal
	tc.refuse.Store(false)
	tc.waitShipped(t, "a's streams to drain", func() bool { return true })
	for _, p := range tc.mgrs[0].Status().Peers {
		if p.Node == "b" && p.Resyncs == 0 {
			t.Fatal("a never resynced b, which refused it past Retain")
		}
	}

	// b holds m's subscriptions and pending recommendations as a does.
	want, err := durabletest.Capture(ctx, a, []string{m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := durabletest.Capture(ctx, b, []string{m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := durabletest.Diff(want, got); err != nil || diff != "" {
		t.Errorf("b's state for %s differs from a's (%v):\n%s", m, err, diff)
	}
	if got := tc.stat(t, 1, "clicks_stored"); got != float64(mClicks) {
		t.Errorf("b stores %v clicks, want m's %d", got, mClicks)
	}
	// b applied m's cursor and nothing of f's.
	ops := map[string][]durable.Op{}
	b.mu.Lock()
	for _, rec := range b.recs {
		var us []string
		if rec.Op == durable.OpClicks {
			us, _ = durable.ClickUsers(rec)
		} else if u, err := durable.RecordUser(rec); err == nil {
			us = []string{u}
		}
		for _, u := range us {
			ops[u] = append(ops[u], rec.Op)
		}
	}
	b.mu.Unlock()
	for _, op := range []durable.Op{durable.OpSubscribe, durable.OpCursorAck, durable.OpPendingAdd, durable.OpClicks} {
		if !slices.Contains(ops[m], op) {
			t.Errorf("b applied no %v record of %s, whose replica set holds b", op, m)
		}
	}
	if len(ops[f]) != 0 {
		t.Errorf("b applied %d records of %s, whose replica set is {c, a}: %v", len(ops[f]), f, ops[f])
	}
	if subs, err := b.Subscriptions(ctx, f); err != nil || len(subs) != 0 {
		t.Errorf("b holds %d subscriptions (%v) of %s, whose replica set is {c, a}", len(subs), err, f)
	}
}
