package reefstream_test

import (
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
	"reef/internal/websim"
	"reef/reefstream"
)

type nopFetcher struct{}

func (nopFetcher) Fetch(url string) (*websim.Resource, error) {
	return nil, fmt.Errorf("test: %s not cached", url)
}

// newDep builds a deployment with n subscribers of feed, so a matching
// publish delivers exactly n times.
func newDep(t *testing.T, feed string, n int) *reef.Centralized {
	t.Helper()
	dep, err := reef.NewCentralized(reef.WithFetcher(nopFetcher{}))
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	t.Cleanup(func() { dep.Close() })
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := dep.Subscribe(ctx, fmt.Sprintf("user-%03d", i), feed); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	return dep
}

func feedEvent(feed string) reef.Event {
	return reef.Event{
		Source: "stream-test",
		Attrs:  map[string]string{"type": "feed-item", "feed": feed, "title": "t", "link": "http://h.test/item"},
	}
}

func TestStreamPublishDeliversLikeDirect(t *testing.T) {
	const feed = "http://h.test/f"
	dep := newDep(t, feed, 7)
	srv, err := reefstream.Listen("127.0.0.1:0", dep, reefstream.WithNode("n1"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String(), reefstream.WithExpectNode("n1"))
	defer cl.Close()

	ctx := context.Background()
	want, err := dep.PublishEvent(ctx, feedEvent(feed))
	if err != nil {
		t.Fatalf("direct PublishEvent: %v", err)
	}
	if want != 7 {
		t.Fatalf("direct delivered = %d, want 7", want)
	}
	got, err := cl.PublishEvent(ctx, feedEvent(feed))
	if err != nil {
		t.Fatalf("stream PublishEvent: %v", err)
	}
	if got != want {
		t.Errorf("stream delivered = %d, direct = %d", got, want)
	}

	batch := make([]reef.Event, 5)
	for i := range batch {
		batch[i] = feedEvent(feed)
	}
	got, err = cl.PublishBatch(ctx, batch)
	if err != nil {
		t.Fatalf("stream PublishBatch: %v", err)
	}
	if got != 5*want {
		t.Errorf("batch delivered = %d, want %d", got, 5*want)
	}
	if frames, events := srv.Stats(); frames != 2 || events != 6 {
		t.Errorf("server stats = (%d frames, %d events), want (2, 6)", frames, events)
	}
}

// TestStreamEventRoundTrip pins that every event field survives the
// binary encoding, including a zero Published time staying zero.
func TestStreamEventRoundTrip(t *testing.T) {
	const feed = "http://h.test/f"
	dep := newDep(t, feed, 1)
	ctx := context.Background()
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ev := feedEvent(feed)
	ev.Payload = []byte{0, 1, 2, 0xff}
	ev.Published = time.Unix(123, 456).UTC()
	if _, err := cl.PublishEvent(ctx, ev); err != nil {
		t.Fatalf("PublishEvent: %v", err)
	}
	// A second publish with a zero time must also deliver (the decoder
	// must map wire 0 back to the zero time so the broker stamps it).
	if _, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil {
		t.Fatalf("PublishEvent zero-time: %v", err)
	}
}

func TestStreamConcurrentPipelining(t *testing.T) {
	const feed = "http://h.test/f"
	const subs = 3
	dep := newDep(t, feed, subs)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ctx := context.Background()
	const workers, perWorker = 8, 50
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n, err := cl.PublishEvent(ctx, feedEvent(feed))
				if err != nil {
					t.Errorf("PublishEvent: %v", err)
					return
				}
				delivered.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	if got, want := delivered.Load(), int64(workers*perWorker*subs); got != want {
		t.Errorf("total delivered = %d, want %d", got, want)
	}
	if frames, events := srv.Stats(); frames != workers*perWorker || events != workers*perWorker {
		t.Errorf("server stats = (%d frames, %d events), want (%d, %d)",
			frames, events, workers*perWorker, workers*perWorker)
	}
}

// TestStreamDistributedPerFrameCounts pins per-frame attribution on the
// distributed deployment, which publishes through the same batch-count
// body as the centralized one: pipelined frames for two feeds with
// different subscriber counts, coalesced into shared batches and fanned
// out to three shards, must each be acked with their own feed's count.
func TestStreamDistributedPerFrameCounts(t *testing.T) {
	ctx := context.Background()
	dep, err := reef.NewDistributed(reef.WithFetcher(nopFetcher{}), reef.WithShards(3))
	if err != nil {
		t.Fatalf("NewDistributed: %v", err)
	}
	t.Cleanup(func() { dep.Close() })
	feeds := []struct {
		url  string
		subs int
	}{{"http://h.test/a", 2}, {"http://h.test/b", 5}}
	for _, f := range feeds {
		for i := 0; i < f.subs; i++ {
			if _, err := dep.Subscribe(ctx, fmt.Sprintf("%s-user-%d", f.url, i), f.url); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
		}
	}
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := feeds[(w+i)%len(feeds)]
				n, err := cl.PublishEvent(ctx, feedEvent(f.url))
				if err != nil {
					t.Errorf("PublishEvent: %v", err)
					return
				}
				if n != f.subs {
					t.Errorf("frame for %s acked %d deliveries, want its own %d", f.url, n, f.subs)
					return
				}
			}
		}()
	}
	wg.Wait()
	if frames, events := srv.Stats(); frames != workers*perWorker || events != workers*perWorker {
		t.Errorf("server stats = (%d frames, %d events), want (%d, %d)",
			frames, events, workers*perWorker, workers*perWorker)
	}
}

// TestStreamInvalidEventAck pins error attribution: an invalid event is
// rejected with a typed ack that unwraps to reef.ErrInvalidArgument,
// and a valid frame pipelined around it still lands.
func TestStreamInvalidEventAck(t *testing.T) {
	const feed = "http://h.test/f"
	dep := newDep(t, feed, 2)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ctx := context.Background()
	if _, err := cl.PublishEvent(ctx, reef.Event{}); !errors.Is(err, reef.ErrInvalidArgument) {
		t.Errorf("invalid event err = %v, want reef.ErrInvalidArgument", err)
	}
	var se *reefstream.StatusError
	if _, err := cl.PublishEvent(ctx, reef.Event{}); !errors.As(err, &se) || se.Status != reefstream.StatusInvalidArgument {
		t.Errorf("invalid event err = %v, want StatusError(invalid_argument)", err)
	}
	if n, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil || n != 2 {
		t.Errorf("valid publish after rejection = (%d, %v), want (2, nil)", n, err)
	}
}

func TestStreamNodeIdentityMismatch(t *testing.T) {
	dep := newDep(t, "http://h.test/f", 0)
	srv, err := reefstream.Listen("127.0.0.1:0", dep, reefstream.WithNode("n1"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String(), reefstream.WithExpectNode("other"))
	defer cl.Close()
	if _, err := cl.PublishEvent(context.Background(), feedEvent("http://h.test/f")); err == nil {
		t.Fatal("publish to wrong node identity succeeded, want handshake refusal")
	}
}

// TestStreamClientRedials pins lazy recovery: after the server dies and
// a replacement comes up on the same address, the same client publishes
// again without being rebuilt.
func TestStreamClientRedials(t *testing.T) {
	const feed = "http://h.test/f"
	dep := newDep(t, feed, 1)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := srv.Addr().String()
	cl := reefstream.NewClient(addr)
	defer cl.Close()

	ctx := context.Background()
	if _, err := cl.PublishEvent(ctx, feedEvent(feed)); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	srv.Close()

	// Rebind the same address; retry briefly in case the port lingers.
	var srv2 *reefstream.Server
	for i := 0; i < 50; i++ {
		ln, lerr := net.Listen("tcp", addr)
		if lerr == nil {
			srv2 = reefstream.NewServer(ln, dep)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv2 == nil {
		t.Fatalf("could not rebind %s", addr)
	}
	defer srv2.Close()

	var lastErr error
	for i := 0; i < 50; i++ {
		if _, lastErr = cl.PublishEvent(ctx, feedEvent(feed)); lastErr == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("publish never recovered after server restart: %v", lastErr)
}

func TestStreamClientClosed(t *testing.T) {
	dep := newDep(t, "http://h.test/f", 0)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	cl.Close()
	if _, err := cl.PublishEvent(context.Background(), feedEvent("http://h.test/f")); !errors.Is(err, reef.ErrClosed) {
		t.Errorf("publish on closed client = %v, want reef.ErrClosed", err)
	}
}

// TestStreamServerDrainMidStream drives publishers through a drain and
// asserts the invariant the drain sequence promises: every frame the
// server read is applied whole. Each frame carries batchSize events, so
// the deployment's published counter must advance in exact multiples of
// batchSize — a half-applied frame would break divisibility — and every
// client-acked event must be among the applied ones.
func TestStreamServerDrainMidStream(t *testing.T) {
	const feed = "http://h.test/f"
	const batchSize = 7
	dep := newDep(t, feed, 1)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()

	ctx := context.Background()
	before, err := dep.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}

	var ackedFrames atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]reef.Event, batchSize)
			for i := range batch {
				batch[i] = feedEvent(feed)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.PublishBatch(ctx, batch); err == nil {
					ackedFrames.Add(1)
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let the stream get hot
	shutdownCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	after, err := dep.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	applied := int64(after["broker_published"] - before["broker_published"])
	if applied%batchSize != 0 {
		t.Errorf("deployment applied %d events, not a multiple of frame size %d: a frame was half-applied", applied, batchSize)
	}
	if acked := ackedFrames.Load() * batchSize; applied < acked {
		t.Errorf("deployment applied %d events but clients got acks for %d", applied, acked)
	}
	if ackedFrames.Load() == 0 {
		t.Error("no frame was acked before the drain; test exercised nothing")
	}
	_, events := srv.Stats()
	if events%batchSize != 0 {
		t.Errorf("server applied %d events, not a multiple of %d", events, batchSize)
	}
}

// TestStreamServerDrainRefusesNewConns pins that a draining server
// stops accepting: a fresh client cannot publish after Shutdown.
func TestStreamServerDrainRefusesNewConns(t *testing.T) {
	dep := newDep(t, "http://h.test/f", 0)
	srv, err := reefstream.Listen("127.0.0.1:0", dep)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	cl := reefstream.NewClient(srv.Addr().String(), reefstream.WithCallTimeout(500*time.Millisecond))
	defer cl.Close()
	if _, err := cl.PublishEvent(ctx, feedEvent("http://h.test/f")); err == nil {
		t.Fatal("publish to a drained server succeeded")
	}
}

// TestClientCloseDuringDial pins that Close reaches a dial under way: a
// publish waiting on a server that took the client's hello and never
// answers returns reef.ErrClosed at once, not at the dial bound, and
// the half-open connection is closed.
func TestClientCloseDuringDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			held <- conn
		}
	}()
	cl := reefstream.NewClient(ln.Addr().String())
	published := make(chan error, 1)
	go func() {
		_, err := cl.PublishEvent(context.Background(), feedEvent("http://h.test/f"))
		published <- err
	}()
	conn := <-held
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 1)); err != nil { // the client's hello
		t.Fatal(err)
	}
	cl.Close()
	select {
	case err := <-published:
		if !errors.Is(err, reef.ErrClosed) {
			t.Fatalf("publish closed during its dial = %v, want reef.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("publish still waits on its dial a second after Close")
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the dial's connection read %v after Close, want EOF", err)
	}
}
