package reefstream_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/reefstream"
)

// TestStreamClicksE2E pins the clicks verb against a real deployment: a
// batch larger than one frame lands whole, the accepted count and the
// server's clicks counter both equal the clicks sent, and a click the
// deployment refuses surfaces as the same sentinel REST maps it to,
// without killing the connection.
func TestStreamClicksE2E(t *testing.T) {
	dep := newDep(t, "http://h.test/f", 0)
	reg := metrics.NewRegistry()
	srv, err := reefstream.Listen("127.0.0.1:0", dep, reefstream.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()
	ctx := context.Background()

	at := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	clicks := make([]reef.Click, 2*reefstream.MaxFrameEvents+5)
	for i := range clicks {
		clicks[i] = reef.Click{User: fmt.Sprintf("user-%02d", i%7), URL: fmt.Sprintf("http://h.test/p/%d.html", i), At: at.Add(time.Duration(i) * time.Second)}
	}
	n, err := cl.IngestClicks(ctx, clicks)
	if err != nil || n != len(clicks) {
		t.Fatalf("IngestClicks = (%d, %v), want %d", n, err, len(clicks))
	}
	if got := reg.Counter(metrics.StreamClicksIn.Name).Value(); got != int64(len(clicks)) {
		t.Errorf("%s = %d, want %d", metrics.StreamClicksIn.Name, got, len(clicks))
	}
	stats, err := dep.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["clicks_stored"] != float64(len(clicks)) {
		t.Errorf("clicks_stored = %v, want %d", stats["clicks_stored"], len(clicks))
	}

	_, err = cl.IngestClicks(ctx, []reef.Click{{User: "u", At: at}})
	var se *reefstream.StatusError
	if !errors.As(err, &se) || !errors.Is(err, reef.ErrInvalidArgument) {
		t.Fatalf("click without URL = %v, want a StatusError wrapping ErrInvalidArgument", err)
	}
	if n, err := cl.IngestClicks(ctx, clicks[:3]); err != nil || n != 3 {
		t.Fatalf("IngestClicks after a refused frame = (%d, %v), want 3", n, err)
	}
}

// fakeStream speaks just enough of the stream protocol to stand in for
// a node: it answers each hello with reply and counts the clicks frames
// it reads across all connections, closing a connection on its first
// one — what a server does that dies mid-frame, or that predates the
// clicks op and refuses it.
type fakeStream struct {
	ln     net.Listener
	hellos atomic.Int64
	clicks atomic.Int64
	wg     sync.WaitGroup
}

func startFakeStream(t *testing.T, reply string) *fakeStream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeStream{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer conn.Close()
				f.serve(conn, reply)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeStream) serve(conn net.Conn, reply string) {
	br := bufio.NewReader(conn)
	for {
		rec, err := readTestFrame(br)
		if err != nil {
			return
		}
		switch rec.Op {
		case durable.OpStreamHello:
			f.hellos.Add(1)
			if _, err := conn.Write(durable.Record{Op: durable.OpStreamHello, Payload: []byte(reply)}.AppendEncoded(nil)); err != nil {
				return
			}
		case durable.OpStreamClicks:
			f.clicks.Add(1)
			return
		}
	}
}

func readTestFrame(br *bufio.Reader) (durable.Record, error) {
	hdr := make([]byte, durable.FrameHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return durable.Record{}, err
	}
	frame := append(hdr, make([]byte, durable.FrameBodyLen(hdr))...)
	if _, err := io.ReadFull(br, frame[durable.FrameHeaderLen:]); err != nil {
		return durable.Record{}, err
	}
	rec, _, err := durable.DecodeFrame(frame)
	return rec, err
}

// TestStreamClicksNeverResent pins that a clicks frame is sent once: the
// server reads it and the connection dies before the ack, so the frame
// may have landed, and IngestClicks reports the failure instead of
// redialing and sending it again, as a publish would.
func TestStreamClicksNeverResent(t *testing.T) {
	fake := startFakeStream(t, `{"proto":1,"clicks":true}`)
	cl := reefstream.NewClient(fake.ln.Addr().String())
	defer cl.Close()
	_, err := cl.IngestClicks(context.Background(), []reef.Click{{User: "u", URL: "http://h.test/"}})
	if err == nil {
		t.Fatal("IngestClicks succeeded on a connection that died before the ack")
	}
	if got := fake.clicks.Load(); got != 1 {
		t.Errorf("server read %d clicks frames across %d connections, want exactly 1", got, fake.hellos.Load())
	}
}

// TestStreamClicksUnadvertised pins the mixed-version rule: a client
// no longer reads the hello's clicks capability, so a server whose hello
// lacks it is sent the frame, kills the connection on it as an older
// server does, and the call fails once, claiming nothing about whether
// the frame was sent.
func TestStreamClicksUnadvertised(t *testing.T) {
	fake := startFakeStream(t, `{"proto":1}`)
	cl := reefstream.NewClient(fake.ln.Addr().String())
	defer cl.Close()
	_, err := cl.IngestClicks(context.Background(), []reef.Click{{User: "u", URL: "http://h.test/"}})
	if err == nil {
		t.Fatalf("IngestClicks = %v, want a failure after the frame was sent", err)
	}
	if fake.hellos.Load() != 1 || fake.clicks.Load() != 1 {
		t.Errorf("server saw %d hellos and %d clicks frames, want 1 and 1", fake.hellos.Load(), fake.clicks.Load())
	}
}
