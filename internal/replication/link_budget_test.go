//go:build !race

package replication

import (
	"context"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/durable"
)

// countingConn counts the bytes a connection carries each way.
type countingConn struct {
	net.Conn
	wrote, read *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// linkAllocsPerBatch is the measured allocation count of one shipped
// batch of one record, sender and receiver together (the offer's frame
// and routing, the trace ID, the receiver's decode, position record and
// apply), 11.1 on linux/amd64, plus 1.5 of slack.
const linkAllocsPerBatch = 11.1 + 1.5

// TestReplicationLinkBudget is the "link cost per batch" row: 1 000
// batches to one peer ride exactly one upgraded connection, a peer
// nothing is meant for is never dialed, the link carries nothing per
// batch beyond the WAL frames but the batch header and the ack, and a
// shipped batch costs at most linkAllocsPerBatch allocations.
func TestReplicationLinkBudget(t *testing.T) {
	const batches = 1000
	var mu sync.Mutex
	dials := map[string]int{}
	var wrote, read atomic.Int64
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, wrote: &wrote, read: &read}, nil
	}}
	t.Cleanup(tr.CloseIdleConnections)

	nodes := []Node{{ID: "a", BaseURL: "http://unused.test"}}
	hosts := map[string]string{}
	for _, id := range []string{"b", "c"} {
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
	sender, err := New(Options{
		Self: "a", Nodes: nodes, Replicas: 1, Applier: &fakeApplier{},
		RetryInterval: 10 * time.Millisecond, HTTPClient: &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Close)
	b := sender.peerAt(1)
	acked := func() int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.acked
	}
	// ship offers one record for b and waits for its ack, so each batch
	// carries exactly that record.
	u := slotUsers(3, 0)[0] // replica set {a, b}
	recs := make([]durable.Record, batches+1)
	for i := range recs {
		recs[i] = cursorRec(u, int64(i))
	}
	ship := func(i int) {
		sender.Offer(recs[i])
		deadline := time.Now().Add(5 * time.Second)
		for acked() != int64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("batch %d not acked", i)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	ship(1) // dials and upgrades the link
	wrote0, read0 := wrote.Load(), read.Load()

	var want, frames int64 // link bytes beyond the frames, and the frames
	for i := 2; i <= batches; i++ {
		n := len(recs[i].AppendEncoded(nil))
		frames += int64(n)
		want += int64(len(durable.AppendReplBatch(nil, durable.ReplBatch{Prev: int64(i - 1), Last: int64(i), Count: 1, Bytes: n})))
		want += int64(len(durable.AppendReplAck(nil, durable.ReplAck{Kind: durable.AckOK, Acked: int64(i)})))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 2; i <= batches; i++ {
		ship(i)
	}
	runtime.ReadMemStats(&after)

	mu.Lock()
	defer mu.Unlock()
	if n := dials[hosts["b"]]; n != 1 {
		t.Errorf("b was dialed %d times for %d batches, want 1", n, batches)
	}
	if n := dials[hosts["c"]]; n != 0 {
		t.Errorf("idle peer c was dialed %d times, want 0", n)
	}
	if got := wrote.Load() - wrote0 + read.Load() - read0 - frames; got != want {
		t.Errorf("link carried %d bytes beyond %d of frames over %d batches, want %d (header and ack)",
			got, frames, batches-1, want)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(batches-1)
	if allocs > linkAllocsPerBatch {
		t.Errorf("%.2f allocations per shipped batch, budget %.1f", allocs, linkAllocsPerBatch)
	}
	t.Logf("per batch: %.1f link bytes beyond %.1f B of frames, %.2f allocations",
		float64(want)/float64(batches-1), float64(frames)/float64(batches-1), allocs)
}
