package replication

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/routing"
)

// batchApplier counts the batches a receiver journals and the position
// records in each.
type batchApplier struct {
	fakeApplier
	bmu       sync.Mutex
	positions []int // position records per ApplyReplicated call
}

func (b *batchApplier) ApplyReplicated(recs []durable.Record) error {
	n := 0
	for _, rec := range recs {
		if rec.Op == durable.OpReplPosition {
			n++
		}
	}
	b.bmu.Lock()
	b.positions = append(b.positions, n)
	b.bmu.Unlock()
	return b.fakeApplier.ApplyReplicated(recs)
}

func (b *batchApplier) batches() []int {
	b.bmu.Lock()
	defer b.bmu.Unlock()
	return slices.Clone(b.positions)
}

// recordKey names a record for comparison: a click batch by its users
// (a re-encoded batch keeps their order), anything else by its frame.
func recordKey(t *testing.T, rec durable.Record) string {
	t.Helper()
	if rec.Op != durable.OpClicks {
		return string(rec.AppendEncoded(nil))
	}
	users, err := durable.ClickUsers(rec)
	if err != nil {
		t.Fatal(err)
	}
	return "clicks:" + strings.Join(users, ",")
}

// TestReplicationShipBudget is the "records shipped per journaled
// record" row: on 3 nodes, every peer receives exactly the records
// whose replica set holds it — one shipped record per destination, no
// more — in batches that each carry at least one record and journal
// exactly one position on the receiver. At k=1, a peer nothing is
// meant for is not even dialed across 20 retry intervals.
func TestReplicationShipBudget(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { testShipBudget(t, k) })
	}
}

func testShipBudget(t *testing.T, k int) {
	const retry = 10 * time.Millisecond
	ids := []string{"a", "b", "c"}
	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}}
	apps := map[string]*batchApplier{}
	hosts := map[string]string{}
	for _, id := range ids[1:] {
		app := &batchApplier{}
		m, err := New(Options{Self: id, Nodes: []Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}, Applier: app})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		srv := serve(t, func() *Manager { return m })
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, Node{ID: id, BaseURL: srv.URL})
		apps[id], hosts[id] = app, u.Host
	}
	tap := newLinkTap(http.DefaultTransport)
	sender, err := New(Options{
		Self: "a", Nodes: nodes, Replicas: k, Applier: &fakeApplier{},
		RetryInterval: retry, HTTPClient: &http.Client{Transport: tap},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)

	want := map[string][]string{} // record keys each peer must receive
	journaled := 0
	offer := func(rec durable.Record, to ...string) {
		journaled++
		sender.Offer(rec)
		for _, id := range to {
			want[id] = append(want[id], recordKey(t, rec))
		}
	}
	// to is where a user's records ship: the replica set, a left out.
	to := func(user string) []string {
		var out []string
		for _, s := range routing.ReplicaSet(user, len(ids), k) {
			if s != 0 {
				out = append(out, ids[s])
			}
		}
		return out
	}
	drained := func() {
		t.Helper()
		waitFor(t, "streams drained", func() bool { return queued(sender.Status()) == 0 })
	}
	const perSet = 8
	us := slotUsers(3, 0, 1, 2)

	// Slot 0's set is {a, b} at k=1 and every node at k=2; flags go to
	// a's k ring successors. At k=1 c is meant nothing and must stay
	// uncontacted.
	for i := range perSet {
		offer(cursorRec(us[0], int64(i+1)), to(us[0])...)
	}
	offer(durable.FlagRecord("spam.example.com", 1), ids[1:1+k]...)
	drained()
	if k == 1 {
		time.Sleep(20*retry + retry/2)
		if n := tap.dials(hosts["c"]); n != 0 {
			t.Fatalf("idle peer c was dialed %d times across 20 retry intervals, want 0", n)
		}
	}

	// Every other destination set, then one clicks batch mixing all
	// three: a peer that every click goes to gets the batch as offered,
	// any other destination peer only its own clicks.
	for _, u := range us[1:] {
		for i := range perSet {
			offer(cursorRec(u, int64(i+1)), to(u)...)
		}
	}
	mixed := make([]attention.Click, len(us))
	own := map[string][]string{}
	for i, u := range us {
		mixed[i] = attention.Click{User: u, URL: "http://x.test/p"}
		for _, id := range to(u) {
			own[id] = append(own[id], u)
		}
	}
	offer(durable.ClicksRecord(mixed))
	for id, users := range own {
		want[id] = append(want[id], "clicks:"+strings.Join(users, ","))
	}
	drained()

	shipped := 0
	for _, id := range ids[1:] {
		var got []string
		for _, rec := range apps[id].applied() {
			got = append(got, recordKey(t, rec))
		}
		if !slices.Equal(got, want[id]) {
			t.Errorf("%s received %d records, want exactly its own %d", id, len(got), len(want[id]))
		}
		shipped += len(got)
		posts, _ := tap.to(hosts[id])
		if slices.ContainsFunc(posts, func(h durable.ReplBatch) bool { return h.Count == 0 }) {
			t.Errorf("%s received an empty batch among %d batches: %v", id, len(posts), posts)
		}
		batches := apps[id].batches()
		if len(batches) != len(posts) {
			t.Errorf("%s journaled %d batches from %d shipped", id, len(batches), len(posts))
		}
		for _, n := range batches {
			if n != 1 {
				t.Errorf("%s journaled a batch with %d position records, want 1: %v", id, n, batches)
				break
			}
		}
	}
	t.Logf("k=%d: %d records shipped for %d journaled, %.2f per journaled record",
		k, shipped, journaled, float64(shipped)/float64(journaled))
}
