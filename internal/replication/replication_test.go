package replication

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/faulthttp"
	"reef/internal/routing"
	"reef/internal/upgrade"
)

// fakeApplier records what the manager applied, in order, keeping the
// position records apart from the data records as a deployment's log
// would hand them back.
type fakeApplier struct {
	mu        sync.Mutex
	recs      []durable.Record
	cuts      [][]durable.Record
	positions map[string]durable.ReplPosition
}

func (f *fakeApplier) ApplyReplicated(recs []durable.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range recs {
		if rec.Op != durable.OpReplPosition {
			f.recs = append(f.recs, rec)
			continue
		}
		p, err := durable.DecodeReplPosition(rec)
		if err != nil {
			return err
		}
		if f.positions == nil {
			f.positions = make(map[string]durable.ReplPosition)
		}
		f.positions[p.Source] = p
	}
	return nil
}

func (f *fakeApplier) ReplicationPositions() []durable.ReplPosition {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []durable.ReplPosition
	for _, src := range slices.Sorted(maps.Keys(f.positions)) {
		out = append(out, f.positions[src])
	}
	return out
}

// restarted is the applier a restarted process recovers from this one's
// log: the positions, and none of the records applied so far.
func (f *fakeApplier) restarted() *fakeApplier {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &fakeApplier{positions: maps.Clone(f.positions)}
}

// ApplyReplicatedCut keeps the records of a batch that carries a resync
// cut apart from the streamed records and applies the position record
// that closes it.
func (f *fakeApplier) ApplyReplicatedCut(recs []durable.Record) error {
	n := len(recs) - 1
	f.mu.Lock()
	f.cuts = append(f.cuts, recs[:n])
	f.mu.Unlock()
	return f.ApplyReplicated(recs[n:])
}

func (f *fakeApplier) CaptureReplicationState(pin func()) ([]durable.Record, error) {
	pin()
	return []durable.Record{durable.PendingSeqRecord(7)}, nil
}

func (f *fakeApplier) applied() []durable.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]durable.Record(nil), f.recs...)
}

// queued sums the per-peer queue lengths: the entries queued over all
// peers, a record bound for two peers counted twice.
func queued(st Status) int64 {
	var n int64
	for _, p := range st.Peers {
		n += p.Pending
	}
	return n
}

func (f *fakeApplier) cutCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.cuts)
}

// serve exposes a receiving manager over HTTP exactly the way reefhttp
// does: an upgrade request to upgrade.Path is answered 101, the hellos
// run in the manager's name, and a link's connection is handed to
// AcceptLink. The manager is fetched per link so restart tests can swap
// it under a stable URL.
func serve(t *testing.T, mgr func() *Manager) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(linkHandler(mgr))
	t.Cleanup(srv.Close)
	return srv
}

func linkHandler(mgr func() *Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != upgrade.Path {
			http.NotFound(w, r)
			return
		}
		if r.Header.Get("Upgrade") != upgrade.Protocol {
			http.Error(w, "upgrade required", http.StatusUpgradeRequired)
			return
		}
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + upgrade.Protocol + "\r\n\r\n")
		if brw.Flush() != nil {
			conn.Close()
			return
		}
		m := mgr()
		hello, err := upgrade.Accept(conn, brw.Reader, m.opt.Self, true)
		if err != nil || !hello.Link {
			conn.Close()
			return
		}
		m.AcceptLink(conn, brw, hello.Source, hello.Epoch)
	})
}

// gate is a transport that fails every call until opened — an outage
// the test can heal (faulthttp covers count-scripted faults; healing is
// time-scripted by the test body). A call is a link upgrade, so the
// gate refuses links; a link already up stays up.
type gate struct {
	open atomic.Bool
	// host, when set, limits the outage to calls to that host.
	host string
	// status, when set, is the peer's answer during the outage, in place
	// of a transport error.
	status int
}

func (g *gate) RoundTrip(req *http.Request) (*http.Response, error) {
	if !g.open.Load() && (g.host == "" || req.URL.Host == g.host) {
		if g.status != 0 {
			return &http.Response{StatusCode: g.status, Status: http.StatusText(g.status),
				Body: io.NopCloser(strings.NewReader("gate: peer down")), Request: req}, nil
		}
		return nil, errors.New("gate: peer unreachable")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// cursorRec builds a user-addressed record (cursor acks are compact
// and carry a Seq to assert ordering with).
func cursorRec(user string, seq int64) durable.Record {
	return durable.CursorAckRecord(durable.CursorAckPayload{User: user, ID: "s", Seq: seq})
}

func cursorSeq(t *testing.T, rec durable.Record) int64 {
	t.Helper()
	p, err := durable.DecodeCursorAck(rec)
	if err != nil {
		t.Fatal(err)
	}
	return p.Seq
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pair builds a 2-node sender/receiver pair with k=1 (every user's
// replica set spans both nodes).
func pair(t *testing.T, senderOpts func(*Options), recvOpts ...func(*Options)) (*Manager, *Manager, *fakeApplier) {
	t.Helper()
	recvApp := &fakeApplier{}
	ropt := Options{
		Self:    "b",
		Nodes:   []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}},
		Applier: recvApp,
	}
	for _, o := range recvOpts {
		o(&ropt)
	}
	recv, err := New(ropt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	srv := serve(t, func() *Manager { return recv })
	opt := Options{
		Self:          "a",
		Nodes:         []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: srv.URL}},
		Replicas:      1,
		Applier:       &fakeApplier{},
		RetryInterval: 10 * time.Millisecond,
	}
	if senderOpts != nil {
		senderOpts(&opt)
	}
	sender, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)
	return sender, recv, recvApp
}

// TestStreamDelivery pins the happy path: offered records arrive at
// the replica in order, the watermark advances, and lag drains to 0.
func TestStreamDelivery(t *testing.T) {
	sender, _, recvApp := pair(t, nil)
	const n = 20
	for i := 1; i <= n; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "records applied", func() bool { return len(recvApp.applied()) == n })
	for i, rec := range recvApp.applied() {
		if got := cursorSeq(t, rec); got != int64(i+1) {
			t.Fatalf("record %d out of order: seq %d", i, got)
		}
	}
	waitFor(t, "lag drained", func() bool {
		st := sender.Status()
		return len(st.Peers) == 1 && st.Peers[0].Pending == 0 && st.Peers[0].Shipped == int64(n)
	})
	st := sender.Status()
	if st.Peers[0].LagP99Micros <= 0 {
		t.Fatal("no lag samples recorded")
	}
	if st.Peers[0].LastError != "" {
		t.Fatalf("unexpected peer error: %s", st.Peers[0].LastError)
	}
}

// TestReconnectCatchUp pins retry: the first link upgrades fail at the
// transport, and the stream still lands once the fault clears.
func TestReconnectCatchUp(t *testing.T) {
	ft := faulthttp.New(nil, &faulthttp.Fault{Match: upgrade.Path, First: 3, Err: faulthttp.ErrInjected})
	sender, _, recvApp := pair(t, func(o *Options) {
		o.HTTPClient = &http.Client{Transport: ft, Timeout: 5 * time.Second}
	})
	for i := 1; i <= 5; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "records applied despite faults", func() bool { return len(recvApp.applied()) == 5 })
	if ft.Calls() < 4 {
		t.Fatalf("transport saw %d calls, want the 3 faulted plus retries", ft.Calls())
	}
}

// TestResponseDropRedelivers pins the at-least-once edge: the replica
// applies a batch, and the link dies before the sender reads its ack;
// the sender redials and re-ships, and the replica answers with a
// watermark conflict instead of double-applying.
func TestResponseDropRedelivers(t *testing.T) {
	var lost atomic.Int64
	tap := newLinkTap(http.DefaultTransport)
	tap.ack = func(string, durable.ReplBatch, durable.ReplAck) bool { return lost.Add(1) > 1 }
	sender, _, recvApp := pair(t, func(o *Options) {
		o.HTTPClient = &http.Client{Transport: tap, Timeout: 5 * time.Second}
	})
	for i := 1; i <= 4; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "records applied", func() bool { return len(recvApp.applied()) >= 4 })
	// Give the sender time to re-ship; duplicates would land here.
	time.Sleep(50 * time.Millisecond)
	if got := len(recvApp.applied()); got != 4 {
		t.Fatalf("replica applied %d records, want exactly 4 (dropped ack must not double-apply)", got)
	}
	waitFor(t, "sender converged", func() bool {
		st := sender.Status()
		return st.Peers[0].Pending == 0 && st.Peers[0].Shipped == 4
	})
}

// TestResyncRefillsQueue pins the eviction path: a peer that falls off
// its bounded queue is refilled with its share of a full cut, which
// lands through ApplyReplicatedCut as ordinary batches, and then
// streams normally again.
func TestResyncRefillsQueue(t *testing.T) {
	g := &gate{}
	sender, recv, recvApp := pair(t, func(o *Options) {
		o.Retain = 4
		o.HTTPClient = &http.Client{Transport: g, Timeout: 5 * time.Second}
	})
	// Offer past the retention cap while the peer is unreachable.
	for i := 1; i <= overflow; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	// The refill waits for a live link: with the peer down, the queue
	// holds the newest 4 offered and nothing is captured.
	waitFor(t, "the sender to meet the outage", func() bool {
		st := sender.Status()
		return len(st.Peers) == 1 && st.Peers[0].LastError != ""
	})
	if st := sender.Status(); queued(st) != 4 || st.Peers[0].Pending != 4 || st.Peers[0].Shipped != 0 || st.Peers[0].Resyncs != 0 {
		t.Fatalf("queue with the peer down = len %d, pending %d, shipped %d, resyncs %d; want the newest 4, nothing acked, no resync",
			queued(st), st.Peers[0].Pending, st.Peers[0].Shipped, st.Peers[0].Resyncs)
	}
	g.open.Store(true)
	waitFor(t, "refill applied", func() bool { return recvApp.cutCount() >= 1 })
	waitFor(t, "post-cut stream drained", func() bool {
		st := sender.Status()
		return st.Peers[0].Pending == 0 && st.Peers[0].Resyncs >= 1
	})
	// The cut was pinned at the peer's last queued seq, so it covers
	// every record offered before it, and its one record is numbered
	// after them: acking it moves the peer past all 5.
	if got := sender.Status().Peers[0].Shipped; got != overflow+1 {
		t.Fatalf("shipped after the resync = %d, want %d", got, overflow+1)
	}
	// Records offered after the cut stream normally again.
	sender.Offer(cursorRec("u", 21))
	waitFor(t, "new record after resync", func() bool {
		for _, r := range recvApp.applied() {
			if cursorSeq(t, r) == 21 {
				return true
			}
		}
		return false
	})
	if got := recv.Status().Sources; len(got) != 1 || got[0].Source != "a" {
		t.Fatalf("receiver sources = %+v, want one from a", got)
	}
}

// TestReceiverRestartResume pins position recovery: a receiver rebuilt
// over an applier that recovered its log resumes at the watermark
// journaled there and does not double-apply the stream prefix.
func TestReceiverRestartResume(t *testing.T) {
	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}}
	recvApp := &fakeApplier{}
	recv, err := New(Options{Self: "b", Nodes: nodes, Applier: recvApp})
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Manager]
	cur.Store(recv)
	srv := serve(t, cur.Load)

	sender, err := New(Options{
		Self:          "a",
		Nodes:         []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: srv.URL}},
		Replicas:      1,
		Applier:       &fakeApplier{},
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	for i := 1; i <= 6; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "first batch applied", func() bool { return len(recvApp.applied()) == 6 })

	// "Restart" the replica: fresh manager over the recovered applier.
	recv.Close()
	recvApp2 := recvApp.restarted()
	recv2, err := New(Options{Self: "b", Nodes: nodes, Applier: recvApp2})
	if err != nil {
		t.Fatal(err)
	}
	defer recv2.Close()
	cur.Store(recv2)

	for i := 7; i <= 9; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "only the new records applied", func() bool { return len(recvApp2.applied()) == 3 })
	time.Sleep(50 * time.Millisecond)
	got := recvApp2.applied()
	if len(got) != 3 || cursorSeq(t, got[0]) != 7 {
		t.Fatalf("restarted receiver applied %d records starting at seq %d, want exactly 7..9",
			len(got), cursorSeq(t, got[0]))
	}
	if recvApp2.cutCount() != 0 {
		t.Fatal("restart with journaled positions forced a resync")
	}
}

// TestLegacyPositionsImport pins the in-place upgrade: a receiver whose
// applier recovered no positions, but whose Dir holds the positions file
// older releases wrote, journals that file's positions once, removes it,
// and resumes the stream from them with no resync.
func TestLegacyPositionsImport(t *testing.T) {
	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}}
	recvApp := &fakeApplier{}
	recv, err := New(Options{Self: "b", Nodes: nodes, Applier: recvApp})
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Manager]
	cur.Store(recv)
	srv := serve(t, cur.Load)
	sender, err := New(Options{
		Self:          "a",
		Nodes:         []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: srv.URL}},
		Replicas:      1,
		Applier:       &fakeApplier{},
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	for i := 1; i <= 6; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "first batch applied", func() bool { return len(recvApp.applied()) == 6 })
	recv.Close()

	// The restarted receiver's log predates journaled positions; the
	// older release kept them in Dir instead.
	dir := t.TempDir()
	legacy := filepath.Join(dir, "replication-positions.json")
	file := fmt.Sprintf(`{"sources":{"a":{"epoch":%d,"applied":6,"last_ingest":"2026-01-01T00:00:00Z"}}}`+"\n",
		sender.Status().Epoch)
	if err := os.WriteFile(legacy, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	recvApp2 := &fakeApplier{}
	recv2, err := New(Options{Self: "b", Nodes: nodes, Applier: recvApp2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer recv2.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy positions file survived the import: %v", err)
	}
	if got := recvApp2.ReplicationPositions(); len(got) != 1 || got[0].Applied != 6 {
		t.Fatalf("journaled positions after import = %+v, want a at 6", got)
	}
	cur.Store(recv2)

	for i := 7; i <= 9; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "only the new records applied", func() bool { return len(recvApp2.applied()) == 3 })
	time.Sleep(50 * time.Millisecond)
	if got := recvApp2.applied(); len(got) != 3 || cursorSeq(t, got[0]) != 7 {
		t.Fatalf("upgraded receiver applied %d records starting at seq %d, want exactly 7..9",
			len(got), cursorSeq(t, got[0]))
	}
	if recvApp2.cutCount() != 0 || sender.Status().Peers[0].Resyncs != 0 {
		t.Fatal("upgrade from the legacy positions file forced a resync")
	}
}

// TestSenderEpochReset pins the other restart direction: a NEW sender
// process (fresh epoch, log renumbered from 1) must not conflict-loop
// against a receiver that remembers the old epoch's watermark.
func TestSenderEpochReset(t *testing.T) {
	recvApp := &fakeApplier{}
	recv, err := New(Options{
		Self:    "b",
		Nodes:   []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}},
		Applier: recvApp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	// Seed the receiver with an old-epoch position deep in the stream.
	if ack := recv.IngestRecords("a", 111, durable.ReplBatch{Last: 5, Count: 1}, cursorRec("u", 1).AppendEncoded(nil)); ack.Kind != durable.AckOK {
		t.Fatal(ack)
	}
	srv := serve(t, func() *Manager { return recv })
	sender, err := New(Options{
		Self:          "a",
		Nodes:         []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: srv.URL}},
		Replicas:      1,
		Applier:       &fakeApplier{},
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.Offer(cursorRec("u", 2))
	waitFor(t, "new-epoch record applied", func() bool { return len(recvApp.applied()) == 2 })
	if got := recv.Status().Sources; len(got) != 1 || got[0].Applied != 1 {
		t.Fatalf("receiver position after epoch reset = %+v, want applied 1", got)
	}
}

// TestIngestValidation pins the receiver's handshake errors.
func TestIngestValidation(t *testing.T) {
	m, err := New(Options{
		Self:    "b",
		Nodes:   []Node{{ID: "a", BaseURL: "http://x.test"}, {ID: "b", BaseURL: "http://y.test"}},
		Applier: &fakeApplier{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	frames := cursorRec("u", 1).AppendEncoded(nil)
	// Wrong prev → conflict carrying the authoritative position.
	if ack := m.IngestRecords("a", 1, durable.ReplBatch{Prev: 5, Last: 6, Count: 1}, frames); ack.Kind != durable.AckConflict || ack.Acked != 0 {
		t.Fatalf("prev mismatch = %+v, want a conflict at 0", ack)
	}
	// Count mismatch.
	if ack := m.IngestRecords("a", 1, durable.ReplBatch{Last: 1, Count: 2}, frames); ack.Kind != durable.AckError {
		t.Fatalf("count mismatch = %+v, want an error", ack)
	}
	// Corrupt frames.
	if ack := m.IngestRecords("a", 1, durable.ReplBatch{Last: 1, Count: 1}, []byte("garbage-bytes")); ack.Kind != durable.AckError {
		t.Fatalf("corrupt frames = %+v, want an error", ack)
	}
	// Regressing watermark.
	if ack := m.IngestRecords("a", 1, durable.ReplBatch{Prev: 3, Last: 2}, nil); ack.Kind != durable.AckError {
		t.Fatalf("regressing watermark = %+v, want an error", ack)
	}
	// count==0 with last>prev is a legitimate gap-only advance.
	if ack := m.IngestRecords("a", 1, durable.ReplBatch{Last: 4}, nil); ack.Kind != durable.AckOK || ack.Acked != 4 {
		t.Fatalf("watermark advance = %+v, want acked 4", ack)
	}
}

// slotUsers finds one user per requested slot for an n-node layout.
func slotUsers(n int, want ...int) []string {
	out := make([]string, len(want))
	left := len(want)
	for i := 0; left > 0; i++ {
		s := routing.UserSlot(fmt.Sprintf("user-%d", i), n)
		for j, w := range want {
			if s == w && out[j] == "" {
				out[j] = fmt.Sprintf("user-%d", i)
				left--
				break
			}
		}
	}
	return out
}

// TestOfferDestinations pins routing: with 3 nodes and k=1 a record
// ships only to the members of its user's replica set.
func TestOfferDestinations(t *testing.T) {
	nodes := []Node{
		{ID: "a", BaseURL: "http://unused.test"},
		{ID: "b", BaseURL: "http://unused.test"},
		{ID: "c", BaseURL: "http://unused.test"},
	}
	us := slotUsers(3, 0, 1) // set {a,b} and set {b,c}
	down := &http.Client{Transport: &gate{}}
	m, err := New(Options{Self: "a", Nodes: nodes, Replicas: 1, Applier: &fakeApplier{}, HTTPClient: down})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pending := func() (b, c int64) {
		for _, p := range m.Status().Peers {
			switch p.Node {
			case "b":
				b = p.Pending
			case "c":
				c = p.Pending
			}
		}
		return
	}
	m.Offer(cursorRec(us[0], 1))
	if b, c := pending(); b != 1 || c != 0 {
		t.Fatalf("pending b=%d c=%d after a slot-0 user's record, want 1/0", b, c)
	}
	// A slot-1 user's set is {b,c}: both are peers of a, so an offer
	// here (e.g. from a promoted writer) ships to both.
	m.Offer(cursorRec(us[1], 1))
	if b, c := pending(); b != 2 || c != 1 {
		t.Fatalf("pending b=%d c=%d after a slot-1 user's record, want 2/1", b, c)
	}
	// Flags have no user: they ship to self's ring successors only (k=1
	// → just b).
	m.Offer(durable.FlagRecord("spam.example.com", 1))
	if b, c := pending(); b != 3 || c != 1 {
		t.Fatalf("pending b=%d c=%d after a flag record, want 3/1", b, c)
	}

	// k=0 disables shipping entirely: no peer queues anything.
	m0, err := New(Options{Self: "a", Nodes: nodes, Replicas: 0, Applier: &fakeApplier{}, HTTPClient: down})
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	m0.Offer(cursorRec(us[0], 1))
	m0.Offer(durable.FlagRecord("spam.example.com", 1))
	st := m0.Status()
	if queued(st) != 0 {
		t.Fatalf("k=0 manager queued %d entries, want 0", queued(st))
	}
	for _, p := range st.Peers {
		if p.Pending != 0 {
			t.Fatalf("k=0 manager queued %d entries for %s, want 0", p.Pending, p.Node)
		}
	}
}

// TestClicksSplitByDestination pins the clicks fan-out: a peer that
// every click of a batch goes to gets the original frame, and any other
// destination peer gets one re-encoded batch of only its own clicks.
func TestClicksSplitByDestination(t *testing.T) {
	nodes := []Node{
		{ID: "a", BaseURL: "http://unused.test"},
		{ID: "b", BaseURL: "http://unused.test"},
		{ID: "c", BaseURL: "http://unused.test"},
	}
	// Slot 0's set is {a,b}, slot 1's {b,c}, slot 2's {c,a}.
	us := slotUsers(3, 0, 0, 1, 2)
	m, err := New(Options{Self: "a", Nodes: nodes, Replicas: 1, Applier: &fakeApplier{},
		HTTPClient: &http.Client{Transport: &gate{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	clicks := func(users ...string) durable.Record {
		out := make([]attention.Click, len(users))
		for i, u := range users {
			out[i] = attention.Click{User: u, URL: "http://x.test/p"}
		}
		return durable.ClicksRecord(out)
	}
	// queued returns what the peer at node slot s holds: one user list
	// per queued frame, and whether each frame is the one offered.
	queued := func(s int, offered durable.Record) (users [][]string, original []bool) {
		t.Helper()
		p := m.peerAt(s)
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, e := range p.queue {
			recs, err := durable.Replay(e.enc)
			if err != nil || len(recs) != 1 {
				t.Fatalf("queued frame decodes to (%d records, %v)", len(recs), err)
			}
			u, err := durable.ClickUsers(recs[0])
			if err != nil {
				t.Fatal(err)
			}
			users = append(users, u)
			original = append(original, string(e.enc) == string(offered.AppendEncoded(nil)))
		}
		return users, original
	}
	check := func(what string, rec durable.Record, b, c []string, bWhole, cWhole bool) {
		t.Helper()
		m.Offer(rec)
		for _, want := range []struct {
			slot  int
			users []string
			whole bool
		}{{1, b, bWhole}, {2, c, cWhole}} {
			got, orig := queued(want.slot, rec)
			switch {
			case want.users == nil && len(got) != 0:
				t.Fatalf("%s: slot %d queued %v, want nothing", what, want.slot, got)
			case want.users == nil:
			case len(got) != 1 || !slices.Equal(got[0], want.users) || orig[0] != want.whole:
				t.Fatalf("%s: slot %d queued %v (original frame %v), want one frame of %v (original %v)",
					what, want.slot, got, orig, want.users, want.whole)
			}
		}
		m.peerAt(1).adopt(m.peerAt(1).next)
		m.peerAt(2).adopt(m.peerAt(2).next)
	}
	check("one set", clicks(us[0], us[1]), []string{us[0], us[1]}, nil, true, false)
	check("b takes all, c some", clicks(us[0], us[2]), []string{us[0], us[2]}, []string{us[2]}, true, false)
	check("each takes some", clicks(us[0], us[3]), []string{us[0]}, []string{us[3]}, false, false)
}

// TestStats pins the gauge shapes merged into /v1/stats.
func TestStats(t *testing.T) {
	sender, recv, _ := pair(t, nil)
	sender.Offer(cursorRec("u", 1))
	waitFor(t, "shipped", func() bool { return sender.Stats()["replication_pending"] == 0 })
	s := sender.Stats()
	if s["replication_replicas"] != 1 || s["replication_peers"] != 1 {
		t.Fatalf("sender gauges = %v, want replicas/peers = 1", s)
	}
	if recv.Stats()["replication_applied_records"] != 1 {
		t.Fatalf("receiver gauges = %v, want 1 applied record", recv.Stats())
	}
}

// TestNewValidation pins constructor errors.
func TestNewValidation(t *testing.T) {
	nodes := []Node{{ID: "a", BaseURL: "http://x.test"}}
	if _, err := New(Options{Self: "a", Nodes: nodes}); err == nil {
		t.Fatal("nil applier accepted")
	}
	if _, err := New(Options{Self: "z", Nodes: nodes, Applier: &fakeApplier{}}); err == nil {
		t.Fatal("unknown self accepted")
	}
	if _, err := New(Options{Self: "a", Nodes: nodes, Replicas: 1, Applier: &fakeApplier{}}); err == nil {
		t.Fatal("replicas >= node count accepted")
	}
}
