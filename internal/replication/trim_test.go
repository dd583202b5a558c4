package replication

import (
	"net/http"
	"net/url"
	"testing"
	"time"
)

// TestLogTrimmedOnAck pins the sender's trim: once the only peer has
// acked everything, its queue holds nothing.
func TestLogTrimmedOnAck(t *testing.T) {
	sender, _, recvApp := pair(t, nil)
	for i := 1; i <= 10; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	waitFor(t, "records applied", func() bool { return len(recvApp.applied()) == 10 })
	waitFor(t, "queue trimmed", func() bool {
		st := sender.Status()
		return queued(st) == 0 && st.Peers[0].Pending == 0
	})
	if st := sender.Status(); st.Peers[0].Shipped != 10 {
		t.Fatalf("status after trim = %+v, want shipped 10", st)
	}
}

// TestLogHeldForDownPeer pins what the trim keeps: with one of two peers
// unreachable, that peer's queue holds exactly its own records, the
// other's empties as it acks, and the down peer's queue empties once it
// is back — by streaming, not by a snapshot resync.
func TestLogHeldForDownPeer(t *testing.T) {
	b, c := &fakeApplier{}, &fakeApplier{}
	receiver := func(self string, app *fakeApplier) string {
		m, err := New(Options{
			Self:    self,
			Nodes:   []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: "http://unused.test"}, {ID: "c", BaseURL: "http://unused.test"}},
			Applier: app,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return serve(t, func() *Manager { return m }).URL
	}
	bURL, cURL := receiver("b", b), receiver("c", c)
	u, err := url.Parse(cURL)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{host: u.Host}
	sender, err := New(Options{
		Self:          "a",
		Nodes:         []Node{{ID: "a", BaseURL: "http://unused.test"}, {ID: "b", BaseURL: bURL}, {ID: "c", BaseURL: cURL}},
		Replicas:      1,
		Applier:       &fakeApplier{},
		RetryInterval: 10 * time.Millisecond,
		HTTPClient:    &http.Client{Transport: g, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)

	// A slot-0 user's set is {a,b}; a slot-1 user's is {b,c}.
	us := slotUsers(3, 0, 1)
	for i := 1; i <= 4; i++ {
		sender.Offer(cursorRec(us[0], int64(i)))
		sender.Offer(cursorRec(us[1], int64(i)))
	}
	peer := func(st Status, id string) PeerStatus {
		for _, p := range st.Peers {
			if p.Node == id {
				return p
			}
		}
		t.Fatalf("no peer %s in %+v", id, st.Peers)
		return PeerStatus{}
	}
	waitFor(t, "b acked everything while c is down", func() bool {
		st := sender.Status()
		return peer(st, "b").Shipped == 8 && peer(st, "c").LastError != ""
	})
	if st := sender.Status(); queued(st) != 4 || peer(st, "c").Pending != 4 || peer(st, "b").Pending != 0 {
		t.Fatalf("queues with c down = %d in all, c %d, b %d; want c's own 4 and b empty",
			queued(st), peer(st, "c").Pending, peer(st, "b").Pending)
	}

	g.open.Store(true)
	waitFor(t, "c caught up and its queue emptied", func() bool {
		st := sender.Status()
		return peer(st, "c").Shipped == 4 && queued(st) == 0
	})
	if got := len(c.applied()); got != 4 {
		t.Fatalf("c applied %d records, want its 4", got)
	}
	for _, p := range sender.Status().Peers {
		if p.Resyncs != 0 {
			t.Fatalf("peer %s resynced %d times, want 0", p.Node, p.Resyncs)
		}
	}
	if b.cutCount() != 0 || c.cutCount() != 0 {
		t.Fatal("a receiver absorbed a snapshot cut")
	}
}
