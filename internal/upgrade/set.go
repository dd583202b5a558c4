package upgrade

import (
	"context"
	"io"
	"sync"
	"time"
)

// Set holds a server's connections, each from its hijack or accept,
// through its hellos, until its role's loop ends, so that Shutdown and
// Close reach every one. The zero Set is open.
type Set struct {
	mu    sync.Mutex
	conns map[io.Closer]struct{}
	state error // nil while open, then ErrDraining or ErrClosed
	wg    sync.WaitGroup
}

// Add holds c until Remove. A draining or closed set refuses it with
// ErrDraining or ErrClosed, and the caller closes c.
func (s *Set) Add(c io.Closer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != nil {
		return s.state
	}
	if s.conns == nil {
		s.conns = make(map[io.Closer]struct{})
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return nil
}

// Remove closes c and lets it go.
func (s *Set) Remove(c io.Closer) {
	s.mu.Lock()
	_, held := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	if held {
		s.wg.Done()
	}
}

// Draining reports whether Shutdown or Close has begun.
func (s *Set) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state != nil
}

// Shutdown refuses new connections and interrupts each held one's
// blocked read, so that its loop ends once it has handled what it read,
// and waits for every one to be removed. When ctx ends first it closes
// those left and returns ctx's error once they are removed.
func (s *Set) Shutdown(ctx context.Context) error {
	s.stop(ErrDraining, func(c io.Closer) {
		if r, ok := c.(interface{ SetReadDeadline(time.Time) error }); ok {
			r.SetReadDeadline(time.Now())
		}
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// Close refuses new connections, closes every held one, and waits for
// each to be removed.
func (s *Set) Close() {
	s.stop(ErrClosed, func(c io.Closer) { c.Close() })
	s.wg.Wait()
}

// stop moves the set on to state, never back from closed, and applies
// f to every held connection.
func (s *Set) stop(state error, f func(io.Closer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != ErrClosed {
		s.state = state
	}
	for c := range s.conns {
		f(c)
	}
}
