package upgrade

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/durable"
)

// ticks collects the package timer's functions instead of running them,
// so a test fires each watchdog tick when it chooses.
type ticks struct {
	mu  sync.Mutex
	fns []func()
}

func (k *ticks) after(_ time.Duration, f func()) func() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.fns = append(k.fns, f)
	return func() bool { return true }
}

// next fires the latest armed tick.
func (k *ticks) next() {
	k.mu.Lock()
	f := k.fns[len(k.fns)-1]
	k.mu.Unlock()
	f()
}

// pipeConn starts a Conn over one end of a pipe whose other end echoes
// every frame back, with owed as the role's answer.
func pipeConn(t *testing.T, owed *atomic.Bool) (*Conn, chan durable.Record) {
	t.Helper()
	client, server := net.Pipe()
	go io.Copy(server, server)
	t.Cleanup(func() { server.Close() })
	frames := make(chan durable.Record, 16)
	c := Start(client, Role{
		Dispatch: func(rec durable.Record) error { frames <- rec; return nil },
		Owed:     owed.Load,
		ReadBuf:  64, WriteBuf: 64, Timeout: time.Second,
	})
	return c, frames
}

func frame(op durable.Op) *[]byte {
	b := durable.Record{Op: op}.AppendEncoded(nil)
	return &b
}

// TestConnLifecycle is the connection's lifecycle table: one sticky
// close reason, a closed connection refusing use with it, the watchdog
// closing a connection that owes a reply and reads nothing, and a
// dial closed while it is under way.
func TestConnLifecycle(t *testing.T) {
	t.Run("send and read", func(t *testing.T) {
		c, frames := pipeConn(t, new(atomic.Bool))
		defer c.CloseWithError(ErrClosed)
		if err := c.Send(context.Background(), frame(durable.OpStreamAck)); err != nil {
			t.Fatal(err)
		}
		if rec := <-frames; rec.Op != durable.OpStreamAck {
			t.Fatalf("read back %v", rec.Op)
		}
	})
	t.Run("double close", func(t *testing.T) {
		c, _ := pipeConn(t, new(atomic.Bool))
		c.CloseWithError(ErrClosed)
		c.CloseWithError(errors.New("second"))
		<-c.Done()
		if err := c.Err(); err != ErrClosed {
			t.Fatalf("Err after two closes = %v, want the first reason", err)
		}
	})
	t.Run("use after close", func(t *testing.T) {
		c, _ := pipeConn(t, new(atomic.Bool))
		c.CloseWithError(ErrClosed)
		if err := c.Send(context.Background(), frame(durable.OpStreamAck)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after Close = %v, want ErrClosed", err)
		}
	})
	t.Run("watchdog", func(t *testing.T) {
		var k ticks
		fire(t, k.after)
		owed := new(atomic.Bool)
		c, frames := pipeConn(t, owed)
		k.next() // nothing owed
		owed.Store(true)
		k.next() // owed, first seen
		c.Send(context.Background(), frame(durable.OpStreamAck))
		<-frames
		k.next() // still owed, but a frame arrived
		if err := c.Err(); err != nil {
			t.Fatalf("the watchdog closed a connection that read a frame: %v", err)
		}
		k.next() // owed, nothing read since the last tick
		if err := c.Err(); !errors.Is(err, ErrStalled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err after a stalled interval = %v, want ErrStalled", err)
		}
	})
	t.Run("close during dial", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		held := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept() // and never answer the hello
			if err == nil {
				held <- conn
			}
		}()
		ctx, cancel := context.WithCancel(context.Background())
		opened := make(chan error, 1)
		go func() {
			_, err := Open(ctx, nil, ln.Addr().String(), Hello{}, "", time.Minute)
			opened <- err
		}()
		conn := <-held
		defer conn.Close()
		var buf []byte
		if _, err := durable.ReadFrame(conn, &buf); err != nil {
			t.Fatalf("the client's hello: %v", err)
		}
		cancel() // while Open waits for the server's hello
		if err := <-opened; !errors.Is(err, context.Canceled) {
			t.Fatalf("Open closed in its hellos = %v, want context.Canceled", err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("the server's end read %v after the dial closed, want EOF", err)
		}
	})
}

// TestSetLifecycle is the set's lifecycle table: a draining or closed
// set refusing connections with its sentinel, Close closing what it
// holds, and Shutdown interrupting a connection in its hellos.
func TestSetLifecycle(t *testing.T) {
	t.Run("add after shutdown or close", func(t *testing.T) {
		var s Set
		if s.Draining() {
			t.Fatal("a zero set is draining")
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		a, b := net.Pipe()
		defer b.Close()
		if err := s.Add(a); err != ErrDraining || !s.Draining() {
			t.Fatalf("Add after Shutdown = %v, want ErrDraining", err)
		}
		s.Close()
		s.Close()
		if err := s.Add(a); err != ErrClosed {
			t.Fatalf("Add after Close = %v, want ErrClosed", err)
		}
		if err := s.Shutdown(context.Background()); err != nil || s.Add(a) != ErrClosed {
			t.Fatalf("Shutdown after Close = %v, and it reopened the set", err)
		}
	})
	t.Run("close closes what it holds", func(t *testing.T) {
		var s Set
		a, b := net.Pipe()
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
		go func() {
			b.Read(make([]byte, 1)) // returns once Close closed a
			s.Remove(a)
		}()
		s.Close()
	})
	t.Run("shutdown during hellos", func(t *testing.T) {
		var s Set
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				accepted <- err
				return
			}
			if err := s.Add(conn); err != nil {
				accepted <- err
				return
			}
			defer s.Remove(conn)
			_, err = Accept(conn, conn, "n1", false)
			accepted <- err
		}()
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for !held(&s) {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown with a connection in its hellos = %v", err)
		}
		if err := <-accepted; err == nil {
			t.Fatal("Accept succeeded with no hello")
		}
		client.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := client.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("the client read %v, want EOF", err)
		}
	})
}

// held reports whether s holds a connection.
func held(s *Set) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns) > 0
}
