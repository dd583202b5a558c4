package replication

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/durable"
)

// linkTap wraps a sender's transport and taps every link it upgrades,
// decoding the batch headers the sender writes and the acks it reads,
// past the hello each way. It is the tests' counting and fault seam on
// the link.
type linkTap struct {
	next http.RoundTripper
	// batch, when set, sees each batch header before any of the batch is
	// sent; false kills the link instead, so the peer never sees it.
	batch func(host string, h durable.ReplBatch) bool
	// ack, when set, sees each ack with the header it answers; false
	// loses it: the peer applied the batch, and the link dies before the
	// sender reads the ack.
	ack func(host string, h durable.ReplBatch, a durable.ReplAck) bool

	mu       sync.Mutex
	upgrades map[string]int
	sent     map[string][]durable.ReplBatch // every header written
	answered map[string][]durable.ReplBatch // every header whose ack was read
}

func newLinkTap(next http.RoundTripper) *linkTap {
	return &linkTap{
		next: next, upgrades: map[string]int{},
		sent: map[string][]durable.ReplBatch{}, answered: map[string][]durable.ReplBatch{},
	}
}

func (t *linkTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		return resp, err
	}
	t.mu.Lock()
	t.upgrades[req.URL.Host]++
	t.mu.Unlock()
	resp.Body = &tappedLink{ReadWriteCloser: resp.Body.(io.ReadWriteCloser), tap: t, host: req.URL.Host}
	return resp, nil
}

// to returns the headers sent to host and those answered.
func (t *linkTap) to(host string) (sent, answered []durable.ReplBatch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]durable.ReplBatch(nil), t.sent[host]...), append([]durable.ReplBatch(nil), t.answered[host]...)
}

// sentAll returns the headers sent to every host.
func (t *linkTap) sentAll() []durable.ReplBatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []durable.ReplBatch
	for _, hs := range t.sent {
		out = append(out, hs...)
	}
	return out
}

func (t *linkTap) dials(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.upgrades[host]
}

// tappedLink is one tapped link's body. The sender writes and reads it
// from its one goroutine, in turns.
type tappedLink struct {
	io.ReadWriteCloser
	tap     *linkTap
	host    string
	out, in []byte              // undecoded header and ack bytes
	skip    int                 // frame bytes still to pass before a header
	pending []durable.ReplBatch // headers sent, not yet answered
}

func (l *tappedLink) Write(p []byte) (int, error) {
	for data := p; len(data) > 0; {
		if l.skip > 0 {
			n := min(l.skip, len(data))
			l.skip -= n
			data = data[n:]
			continue
		}
		l.out = append(l.out, data...)
		rec, n, err := durable.DecodeFrame(l.out)
		if err != nil {
			break // a partial header: the rest comes in a later write
		}
		if rec.Op == durable.OpStreamHello {
			data, l.out = l.out[n:], nil
			continue
		}
		h, err := durable.DecodeReplBatch(rec)
		if err != nil {
			return 0, err
		}
		data, l.out, l.skip = l.out[n:], nil, h.Bytes
		if l.tap.batch != nil && !l.tap.batch(l.host, h) {
			l.Close()
			return 0, errors.New("linkTap: link killed before the batch")
		}
		l.tap.mu.Lock()
		l.tap.sent[l.host] = append(l.tap.sent[l.host], h)
		l.tap.mu.Unlock()
		l.pending = append(l.pending, h)
	}
	return l.ReadWriteCloser.Write(p)
}

func (l *tappedLink) Read(p []byte) (int, error) {
	n, err := l.ReadWriteCloser.Read(p)
	l.in = append(l.in, p[:n]...)
	for {
		rec, m, derr := durable.DecodeFrame(l.in)
		if derr == nil && rec.Op == durable.OpStreamHello {
			l.in = l.in[m:]
			continue
		}
		if derr != nil || len(l.pending) == 0 {
			break
		}
		a, derr := durable.DecodeReplAck(rec)
		if derr != nil {
			return 0, derr
		}
		l.in = l.in[m:]
		h := l.pending[0]
		l.pending = l.pending[1:]
		if l.tap.ack != nil && !l.tap.ack(l.host, h, a) {
			l.Close()
			return 0, errors.New("linkTap: ack lost")
		}
		l.tap.mu.Lock()
		l.tap.answered[l.host] = append(l.tap.answered[l.host], h)
		l.tap.mu.Unlock()
	}
	return n, err
}

// linkGoroutines counts the goroutines serving or shipping over links.
func linkGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "replication.(*Manager).serveLink") +
		strings.Count(string(buf), "replication.(*Manager).sendLoop")
}

// settleLinkGoroutines waits, for at most five seconds, until the link
// goroutines beyond before number want: Close waits for a link's
// goroutine to be done with the link, not to have returned.
func settleLinkGoroutines(t *testing.T, before, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := linkGoroutines() - before
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d link goroutines %s, want %d", n, when, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLinkCloseLeavesNothing pins the link's life across a receiver
// restart: closing the receiving node (HTTP server, then manager) while
// a link is live leaves no link goroutine behind, since the manager
// closes the links the server handed it; the restarted receiver's
// sender redials and resumes from the journaled position, with no
// resync; and closing both nodes leaves nothing running.
func TestLinkCloseLeavesNothing(t *testing.T) {
	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(app *fakeApplier) (*Manager, *http.Server) {
		t.Helper()
		m, err := New(Options{Self: "b", Nodes: nodes, Applier: app})
		if err != nil {
			t.Fatal(err)
		}
		if ln == nil {
			if ln, err = net.Listen("tcp", addr); err != nil {
				t.Fatal(err)
			}
		}
		srv := &http.Server{Handler: linkHandler(func() *Manager { return m })}
		go srv.Serve(ln)
		ln = nil
		return m, srv
	}
	before := linkGoroutines()
	recvApp := &fakeApplier{}
	recv, srv := start(recvApp)
	tap := newLinkTap(http.DefaultTransport)
	sender, err := New(Options{
		Self: "a", Nodes: []Node{nodes[0], {ID: "b", BaseURL: "http://" + addr}}, Replicas: 1,
		Applier: &fakeApplier{}, RetryInterval: 10 * time.Millisecond,
		HTTPClient: &http.Client{Transport: tap},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "first records applied", func() bool { return len(recvApp.applied()) == 6 })

	srv.Close()
	recv.Close()
	// The sender's loop is all that is left.
	settleLinkGoroutines(t, before, 1, "after the receiver closed (the sender's)")

	recvApp2 := recvApp.restarted()
	recv2, srv2 := start(recvApp2)
	for i := 7; i <= 9; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "new records applied", func() bool { return len(recvApp2.applied()) == 3 })
	if got := recvApp2.applied(); cursorSeq(t, got[0]) != 7 {
		t.Fatalf("restarted receiver applied from seq %d, want 7", cursorSeq(t, got[0]))
	}
	if recvApp2.cutCount() != 0 || sender.Status().Peers[0].Resyncs != 0 {
		t.Fatal("the restart forced a resync")
	}
	if n := tap.dials(addr); n != 2 {
		t.Fatalf("sender dialed %d links, want 2: one per receiver process", n)
	}
	srv2.Close()
	recv2.Close()
	sender.Close()
	settleLinkGoroutines(t, before, 0, "left after both nodes closed")
}

// TestResyncWaitsForLink pins that a resync is captured only over a
// live link: while the peer refuses the upgrade and the queue overflows
// Retain, nothing is captured and the queue stays within Retain; once
// the peer answers, the cut is captured exactly once and the peer
// converges.
func TestResyncWaitsForLink(t *testing.T) {
	const retry = 10 * time.Millisecond
	g := &gate{status: http.StatusServiceUnavailable}
	src := &cutSource{cut: durable.AppendRun(nil, cutRecs(3))}
	sender, recvApp := refillPair(t, src, g)
	for i := 1; i <= 3*overflow; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "the sender to meet the refusal", func() bool { return sender.Status().Peers[0].LastError != "" })
	for range 20 {
		time.Sleep(retry)
		if n := sender.Status().Peers[0].Pending; n > 4 {
			t.Fatalf("queue holds %d entries with the peer refusing, want at most Retain (4)", n)
		}
	}
	if n := src.captures.Load(); n != 0 {
		t.Fatalf("sender captured the cut %d times while the peer refused its link, want 0", n)
	}
	g.open.Store(true)
	waitFor(t, "refill landed", func() bool { return recvApp.cutCount() >= 1 && sender.Status().Peers[0].Pending == 0 })
	if n := src.captures.Load(); n != 1 {
		t.Fatalf("sender captured the cut %d times once the peer answered, want 1", n)
	}
	// 15 offered, then the cut's 3 records numbered after them.
	if st := sender.Status().Peers[0]; st.Shipped != 3*overflow+3 || st.Resyncs != 1 {
		t.Fatalf("peer after the resync = shipped %d, resyncs %d; want %d and 1", st.Shipped, st.Resyncs, 3*overflow+3)
	}
}

// TestLinkBatchBound pins the receiver's byte bound: a header claiming
// more than MaxBatchBytes of frames is answered with an error ack, no
// frame of it is read or applied, and the receiver closes the link.
func TestLinkBatchBound(t *testing.T) {
	app := &fakeApplier{}
	recv, err := New(Options{Self: "b", Nodes: []Node{{ID: "a"}, {ID: "b"}}, Applier: app})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recv.Close)
	srv := serve(t, func() *Manager { return recv })
	l, err := DialLink(http.DefaultTransport, Node{BaseURL: srv.URL}, "a", 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frames := cursorRec("u", 1).AppendEncoded(nil)
	ack, err := l.Ship(durable.ReplBatch{Prev: 0, Last: 1, Count: 1, Bytes: MaxBatchBytes + 1}, frames)
	if err == nil || ack.Kind != durable.AckError {
		t.Fatalf("oversized batch = (%+v, %v), want an error ack", ack, err)
	}
	if _, err := l.Ship(durable.ReplBatch{Prev: 0, Last: 1, Count: 1, Bytes: len(frames)}, frames); err == nil {
		t.Fatal("the link carried a batch after an error ack, want it closed")
	}
	if n := len(app.applied()); n != 0 {
		t.Fatalf("the receiver applied %d records of a refused link", n)
	}
}

// TestLinkUpgradeRefused pins a refused dial: a receiver that answers
// the upgrade request with anything but 101 (here a 400) fails the dial
// with that status and message after that one request, with nothing
// sent.
func TestLinkUpgradeRefused(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "missing X-Reef-Replication-Prev header", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	_, err := DialLink(http.DefaultTransport, Node{BaseURL: srv.URL}, "a", 1, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "Prev") {
		t.Fatalf("dial to an older receiver = %v, want its 400 and message", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("peer saw %d requests, want 1", calls.Load())
	}
}
