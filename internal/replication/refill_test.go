package replication

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/routing"
)

// cutSource is a sender's applier whose every capture returns the run
// whose frames are cut.
type cutSource struct {
	fakeApplier
	cut      []byte
	captures atomic.Int64
}

func (c *cutSource) CaptureReplicationState(pin func()) ([]durable.Record, error) {
	c.captures.Add(1)
	pin()
	return durable.Replay(c.cut)
}

// applyCall is one apply call a receiver's applier saw: which method,
// and the data records it carried.
type applyCall struct {
	cut  bool
	recs []durable.Record
}

// callLog is a receiver's applier that logs every apply call.
type callLog struct {
	fakeApplier
	lmu   sync.Mutex
	calls []applyCall
}

func (c *callLog) log(cut bool, recs []durable.Record) {
	c.lmu.Lock()
	c.calls = append(c.calls, applyCall{cut: cut, recs: recs[:len(recs)-1]})
	c.lmu.Unlock()
}

func (c *callLog) ApplyReplicated(recs []durable.Record) error {
	c.log(false, recs)
	return c.fakeApplier.ApplyReplicated(recs)
}

func (c *callLog) ApplyReplicatedCut(recs []durable.Record) error {
	c.log(true, recs)
	return c.fakeApplier.ApplyReplicatedCut(recs)
}

func (c *callLog) logged() []applyCall {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	return append([]applyCall(nil), c.calls...)
}

// cutRecs is a cut of n cursor records of user "cut", seqs 1..n.
func cutRecs(n int) []durable.Record {
	run := make([]durable.Record, n)
	for i := range run {
		run[i] = cursorRec("cut", int64(i+1))
	}
	return run
}

// overflow is one past the Retain the resync tests give their senders
// (4): the last of that many offers to a down peer overflows its queue,
// so the one capture it triggers pins all of them.
const overflow = 5

// refillPair builds a 2-node pair at k=1 whose sender keeps 4 entries per
// peer and captures src's cut, and whose receiver logs its apply calls.
func refillPair(t *testing.T, src *cutSource, rt http.RoundTripper) (*Manager, *callLog) {
	t.Helper()
	recvApp := &callLog{}
	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}}
	recv, err := New(Options{Self: "b", Nodes: nodes, Applier: recvApp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	nodes[1].BaseURL = serve(t, func() *Manager { return recv }).URL
	sender, err := New(Options{
		Self: "a", Nodes: nodes, Replicas: 1, Applier: src, Retain: 4,
		RetryInterval: 10 * time.Millisecond,
		HTTPClient:    &http.Client{Transport: rt, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)
	return sender, recvApp
}

// refillPastRetain runs a resync whose refill, 600 records, is far past
// Retain (4) and shipWindow: the peer refuses its link while records
// 1..5 are offered, so the queue overflows; once the peer answers, the
// sender captures the cut and refills the queue. 6..8 are offered while
// the refill's first batch is held back, so they queue behind the
// refill, and 9..10 after the queue drained. ack is the tap's ack hook.
func refillPastRetain(t *testing.T, ack func(string, durable.ReplBatch, durable.ReplAck) bool) (*Manager, *cutSource, *callLog, *linkTap) {
	t.Helper()
	g := &gate{}
	tap := newLinkTap(g)
	tap.ack = ack
	hold := make(chan struct{})
	var held atomic.Bool
	tap.batch = func(_ string, h durable.ReplBatch) bool {
		if h.Cut && held.CompareAndSwap(false, true) {
			<-hold
		}
		return true
	}
	src := &cutSource{cut: durable.AppendRun(nil, cutRecs(600))}
	sender, recvApp := refillPair(t, src, tap)
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	for i := 1; i <= overflow; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "the sender to meet the outage", func() bool { return sender.Status().Peers[0].LastError != "" })
	g.open.Store(true)
	waitFor(t, "refill queued", func() bool { return sender.Status().Peers[0].Resyncs == 1 })
	for i := 6; i <= 8; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	release()
	drained := func() bool { return sender.Status().Peers[0].Pending == 0 }
	waitFor(t, "refill drained", drained)
	for i := 9; i <= 10; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "stream drained", drained)
	return sender, src, recvApp, tap
}

// checkApplied fails unless the receiver applied the 600 cut records and
// records 6..10 of user "u", each exactly once.
func checkApplied(t *testing.T, recvApp *callLog) {
	t.Helper()
	seen := map[string]int{}
	for _, c := range recvApp.logged() {
		for _, rec := range c.recs {
			p, err := durable.DecodeCursorAck(rec)
			if err != nil {
				t.Fatal(err)
			}
			seen[fmt.Sprintf("%s/%d", p.User, p.Seq)]++
		}
	}
	want := map[string]int{}
	for i := 1; i <= 600; i++ {
		want[fmt.Sprintf("cut/%d", i)] = 1
	}
	for i := 6; i <= 10; i++ {
		want[fmt.Sprintf("u/%d", i)] = 1
	}
	for k, n := range seen {
		if want[k] != n {
			t.Fatalf("receiver applied %s %d times, want %d", k, n, want[k])
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("receiver applied %d distinct records, want %d", len(seen), len(want))
	}
}

// TestRefillPastRetain pins the Retain exemption: a refill of more than
// Retain records, with records queued behind it, lands with exactly one
// capture and one resync, and every record exactly once.
func TestRefillPastRetain(t *testing.T) {
	sender, src, recvApp, _ := refillPastRetain(t, nil)
	if n := sender.Status().Peers[0].Resyncs; n != 1 {
		t.Fatalf("resyncs = %d, want 1", n)
	}
	if n := src.captures.Load(); n != 1 {
		t.Fatalf("captures = %d, want 1", n)
	}
	checkApplied(t, recvApp)
	// 5 assigned before the cut, 600 refill records, 5 behind them.
	if got := sender.Status().Peers[0].Shipped; got != 610 {
		t.Fatalf("shipped = %d, want 610", got)
	}
}

// TestRefillBatchesSync pins the sync wiring: every batch that carries
// refill records reaches the receiver's ApplyReplicatedCut, which has it
// on stable storage before the ack, and no ordinary batch does.
func TestRefillBatchesSync(t *testing.T) {
	_, _, recvApp, _ := refillPastRetain(t, nil)
	var cuts, plain int
	for _, c := range recvApp.logged() {
		refill := 0
		for _, rec := range c.recs {
			if p, err := durable.DecodeCursorAck(rec); err == nil && p.User == "cut" {
				refill++
			}
		}
		switch {
		case refill > 0 && !c.cut:
			t.Fatalf("a batch of %d records, %d of them refill records, reached ApplyReplicated, want ApplyReplicatedCut",
				len(c.recs), refill)
		case refill == 0 && c.cut:
			t.Fatalf("an ordinary batch of %d records reached ApplyReplicatedCut", len(c.recs))
		case c.cut:
			cuts++
		default:
			plain++
		}
	}
	if cuts < 3 || plain < 1 {
		t.Fatalf("receiver saw %d refill batches and %d ordinary ones, want at least 3 (600 records, 256 a batch) and 1",
			cuts, plain)
	}
	checkApplied(t, recvApp)
}

// TestRefillLostAck pins a lost ack mid-refill: the receiver applies
// the refill's second batch and the link dies before the sender reads
// its ack. The sender redials, re-ships the batch, adopts the
// receiver's position from its conflict ack, and goes on with the rest
// of the refill, so no cut record is dropped or applied twice and
// nothing is captured again.
func TestRefillLostAck(t *testing.T) {
	var cuts atomic.Int64
	sender, src, recvApp, tap := refillPastRetain(t, func(_ string, h durable.ReplBatch, _ durable.ReplAck) bool {
		return !h.Cut || cuts.Add(1) != 2
	})
	if n := len(slices.DeleteFunc(tap.sentAll(), func(h durable.ReplBatch) bool { return !h.Cut })); n < 3 {
		t.Fatalf("%d refill batches reached the receiver, want the lost one re-shipped", n)
	}
	if n, c := sender.Status().Peers[0].Resyncs, src.captures.Load(); n != 1 || c != 1 {
		t.Fatalf("resyncs = %d and captures = %d after a lost ack, want 1 and 1", n, c)
	}
	checkApplied(t, recvApp)
}

// TestResyncCapturesOnce pins that a refill waits in the queue: the
// link dies as the refill's first batch goes out, the peer answers 503
// for 20 retry intervals while the sender retries that batch, and the
// cut is captured once.
func TestResyncCapturesOnce(t *testing.T) {
	const retry = 10 * time.Millisecond
	g := &gate{status: http.StatusServiceUnavailable}
	tap := newLinkTap(g)
	var killed atomic.Bool
	tap.batch = func(_ string, h durable.ReplBatch) bool {
		if h.Cut && killed.CompareAndSwap(false, true) {
			g.open.Store(false)
			return false
		}
		return true
	}
	src := &cutSource{cut: durable.AppendRun(nil, cutRecs(3))}
	sender, recvApp := refillPair(t, src, tap)
	for i := 1; i <= overflow; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "the sender to meet the outage", func() bool { return sender.Status().Peers[0].LastError != "" })
	g.open.Store(true)
	waitFor(t, "first capture, and the link killed", func() bool { return src.captures.Load() >= 1 && killed.Load() })
	time.Sleep(20 * retry)
	g.open.Store(true)
	waitFor(t, "refill landed", func() bool { return recvApp.cutCount() >= 1 && sender.Status().Peers[0].Pending == 0 })
	if n := src.captures.Load(); n != 1 {
		t.Fatalf("sender captured the cut %d times across 20 retry intervals of 503, want once", n)
	}
	if n := sender.Status().Peers[0].Resyncs; n != 1 {
		t.Fatalf("resyncs = %d, want 1", n)
	}
}

// TestResyncBytes is the "bytes shipped per resync" row: on 3 nodes at
// k=1, a resync of peer b ships b's share of the cut (the records whose
// replica set holds b, a's flags, the pending-ID counter, b's own part
// of a mixed click batch) and nothing else, in at most
// ceil(bytes/MaxBatchBytes) batches of at most MaxBatchBytes each,
// nothing shipped twice.
func TestResyncBytes(t *testing.T) {
	ids := []string{"a", "b", "c"}
	us := slotUsers(3, 0, 1, 2) // sets {a,b}, {b,c}, {c,a}
	// 100 records of 200 KiB for b's users, 20 for c's only: b's share is
	// past MaxBatchBytes, so it takes two batches.
	big := strings.Repeat("x", 200<<10)
	var cut []durable.Record
	for i := range 120 {
		u := us[i%2]
		if i >= 100 {
			u = us[2]
		}
		cut = append(cut, durable.CursorAckRecord(durable.CursorAckPayload{User: u, ID: big, Seq: int64(i)}))
	}
	mixed := make([]attention.Click, len(us))
	for i, u := range us {
		mixed[i] = attention.Click{User: u, URL: "http://x.test/p"}
	}
	cut = append(cut, durable.ClicksRecord(mixed), durable.FlagRecord("ads.test", 1), durable.PendingSeqRecord(9))

	var share int64 // b's share, routed by the replica sets, not by route
	for _, rec := range cut {
		switch rec.Op {
		case durable.OpCursorAck:
			p, _ := durable.DecodeCursorAck(rec)
			for _, s := range routing.ReplicaSet(p.User, len(ids), 1) {
				if s == 1 {
					share += int64(len(rec.AppendEncoded(nil)))
				}
			}
		case durable.OpClicks:
			share += int64(len(durable.ClicksRecord(mixed[:2]).AppendEncoded(nil)))
		default: // a's one ring successor is b; the counter goes to every peer
			share += int64(len(rec.AppendEncoded(nil)))
		}
	}

	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}}
	hosts := map[string]string{}
	for _, id := range ids[1:] {
		m, err := New(Options{Self: id, Nodes: []Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}, Applier: &fakeApplier{}})
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
		hosts[id] = u.Host
	}
	g := &gate{host: hosts["b"]}
	tap := newLinkTap(g)
	src := &cutSource{cut: durable.AppendRun(nil, cut)}
	sender, err := New(Options{
		Self: "a", Nodes: nodes, Replicas: 1, Applier: src, Retain: 4,
		RetryInterval: 10 * time.Millisecond, HTTPClient: &http.Client{Transport: tap},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)
	for i := 1; i <= overflow; i++ {
		sender.Offer(cursorRec(us[0], int64(i)))
	}
	waitFor(t, "the sender to meet b's outage", func() bool {
		for _, p := range sender.Status().Peers {
			if p.Node == "b" && p.LastError != "" {
				return true
			}
		}
		return false
	})
	g.open.Store(true)
	waitFor(t, "refill drained", func() bool { return src.captures.Load() == 1 && queued(sender.Status()) == 0 })

	var posts []int64 // the byte length of each refill batch b answered
	_, answered := tap.to(hosts["b"])
	for _, h := range answered {
		if h.Cut {
			posts = append(posts, int64(h.Bytes))
		}
	}
	var shipped int64
	for _, n := range posts {
		shipped += n
		if n > MaxBatchBytes {
			t.Errorf("a refill batch carried %d bytes, over the %d bound", n, MaxBatchBytes)
		}
	}
	if limit := (share + MaxBatchBytes - 1) / MaxBatchBytes; int64(len(posts)) > limit || len(posts) < 2 {
		t.Errorf("b's share of %d bytes shipped in %d batches, want 2 to ceil(bytes/bound) = %d", share, len(posts), limit)
	}
	if shipped != share {
		t.Errorf("shipped %d refill bytes to b, want its share of the cut, %d", shipped, share)
	}
	if sent, _ := tap.to(hosts["c"]); slices.ContainsFunc(sent, func(h durable.ReplBatch) bool { return h.Cut }) {
		t.Errorf("c received refill batches, want none")
	}
	t.Logf("resync of b: %d bytes in %d batches (cut %d bytes)", shipped, len(posts), len(src.cut))
}
