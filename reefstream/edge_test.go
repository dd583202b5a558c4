package reefstream

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/trace"
	"reef/internal/websim"
)

type noWeb struct{}

func (noWeb) Fetch(url string) (*websim.Resource, error) {
	return nil, fmt.Errorf("test: %s not cached", url)
}

// TestCorruptFrameBehindValidOne: a malformed publish frame read in the
// same pass as a valid one kills the connection, but only after the
// valid frame is applied and acked with its own count — the drain
// invariant — and the server goes on serving other connections.
func TestCorruptFrameBehindValidOne(t *testing.T) {
	const feed, user = "http://h.test/f", "user-000"
	ctx := context.Background()
	dep, err := reef.NewCentralized(reef.WithFetcher(noWeb{}))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Subscribe(ctx, user, feed); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	hi, _ := json.Marshal(hello{Proto: ProtoVersion})
	if _, err := conn.Write(durable.Record{Op: durable.OpStreamHello, Payload: hi}.AppendEncoded(nil)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var buf []byte
	if rec, err := durable.ReadFrame(br, &buf); err != nil || rec.Op != durable.OpStreamHello {
		t.Fatalf("hello reply = (%v, %v)", rec.Op, err)
	}
	ev := reef.Event{Attrs: map[string]string{"type": "feed-item", "feed": feed}}
	frames := appendPublishFrame(nil, 1, EncodeEvents([]reef.Event{ev}), trace.ID{})
	frames = append(frames, durable.Record{Op: durable.OpStreamPublish, Payload: []byte{1, 2, 3}}.AppendEncoded(nil)...)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.ReadFrame(br, &buf)
	if err != nil || rec.Op != durable.OpStreamAck {
		t.Fatalf("after the pair of frames: (%v, %v), want an ack", rec.Op, err)
	}
	if a, err := decodeAck(rec.Payload); err != nil || a.Seq != 1 || a.Delivered != 1 || a.Status != StatusOK {
		t.Fatalf("ack = (%+v, %v), want seq 1 delivered 1 OK", a, err)
	}
	if rec, err := durable.ReadFrame(br, &buf); err == nil {
		t.Fatalf("connection outlived the malformed frame: read %v", rec.Op)
	}

	cl := NewClient(srv.Addr().String())
	defer cl.Close()
	if n, err := cl.PublishEvent(ctx, ev); err != nil || n != 1 {
		t.Fatalf("publish on a fresh connection = (%d, %v), want 1", n, err)
	}
}
