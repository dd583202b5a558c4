package upgrade

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"reef/internal/durable"
)

// The lifecycle sentinels of a Conn and a Set.
var (
	// ErrClosed is the reason a connection closed by its own side gives,
	// and a closed set's answer to Add.
	ErrClosed = errors.New("upgrade: closed")
	// ErrDraining is a draining set's answer to Add.
	ErrDraining = errors.New("upgrade: draining")
	// ErrStalled is the reason a connection gives that owed a reply and
	// read nothing for its role's Timeout. It unwraps to
	// context.DeadlineExceeded, like the per-call deadline it stands for.
	ErrStalled = fmt.Errorf("upgrade: no reply within the timeout: %w", context.DeadlineExceeded)
)

// afterFunc runs f once d has passed and returns the function that stops
// it, reporting false when f already ran. The hello bound and every
// watchdog run on it, so that tests can fire them without waiting.
var afterFunc = func(d time.Duration, f func()) (stop func() bool) {
	return time.AfterFunc(d, f).Stop
}

// Role is what a connection's user brings to it: a stream client's
// calls or a replication link's batches.
type Role struct {
	// Dispatch handles each frame read, in order, on the reader's
	// goroutine; rec is valid only during the call. An error closes the
	// connection for that reason.
	Dispatch func(rec durable.Record) error
	// Owed reports whether the role awaits a reply.
	Owed func() bool
	// Closed, when set, runs once on the reader's goroutine after the
	// connection closed, with the reason.
	Closed func(reason error)
	// Pool, when set, takes back each sent buffer once it is written.
	Pool *sync.Pool
	// ReadBuf and WriteBuf size the reader's and the writer's buffers.
	ReadBuf, WriteBuf int
	// Timeout bounds how long a reply may be owed while nothing is read:
	// the watchdog closes the connection after between half and all of it.
	Timeout time.Duration
}

// Conn is the dialing end of one upgraded connection, in either role,
// past its hellos. One writer goroutine takes the frames queued by Send
// into one flush, one reader goroutine hands each frame read to the
// role, and one watchdog closes the connection with ErrStalled when a
// reply is owed and nothing arrives. The first close reason sticks.
type Conn struct {
	rwc    io.ReadWriteCloser
	role   Role
	queue  chan *[]byte
	frames atomic.Uint64 // frames read: the watchdog's progress signal

	once sync.Once
	err  error
	stop chan struct{} // closed once err is set
	done chan struct{} // closed once the writer has exited
}

// Start runs the connection over rwc for role.
func Start(rwc io.ReadWriteCloser, role Role) *Conn {
	c := &Conn{
		rwc: rwc, role: role,
		queue: make(chan *[]byte, 256), // the calls a busy stream client pipelines into one flush
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.write(bufio.NewWriterSize(rwc, role.WriteBuf))
	go c.read(bufio.NewReaderSize(rwc, role.ReadBuf))
	c.watch(role.Timeout / 2)
	return c
}

// Send queues the frame in *fp for the writer, waiting for room until
// ctx ends or the connection closes, and returns the close reason once
// it has. A frame queued as the connection closes is never written.
func (c *Conn) Send(ctx context.Context, fp *[]byte) error {
	if err := c.Err(); err != nil {
		return err
	}
	select {
	case c.queue <- fp: // the queue almost always has room
		return nil
	default:
	}
	select {
	case c.queue <- fp:
		return nil
	case <-c.stop:
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CloseWithError closes the connection for reason, unless it closed
// already.
func (c *Conn) CloseWithError(reason error) {
	c.once.Do(func() {
		c.err = reason
		close(c.stop)
		c.rwc.Close()
	})
}

// Err returns nil while the connection is open, then its close reason.
func (c *Conn) Err() error {
	select {
	case <-c.stop:
		return c.err
	default:
		return nil
	}
}

// Done is closed once the connection has closed and its writer holds no
// buffer it was sent.
func (c *Conn) Done() <-chan struct{} { return c.done }

// write drains the queue, taking every frame already queued into one
// flush, so that concurrent senders share it.
func (c *Conn) write(bw *bufio.Writer) {
	defer close(c.done)
	for {
		var fp *[]byte
		select {
		case <-c.stop:
			return
		case fp = <-c.queue:
		}
		err := c.put(bw, fp)
		for err == nil && len(c.queue) > 0 { // the writer alone receives
			err = c.put(bw, <-c.queue)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			c.CloseWithError(fmt.Errorf("upgrade: connection lost: %w", err))
			return
		}
	}
}

func (c *Conn) put(bw *bufio.Writer, fp *[]byte) error {
	_, err := bw.Write(*fp)
	if c.role.Pool != nil {
		c.role.Pool.Put(fp)
	}
	return err
}

// read hands each frame to the role until a read or the role fails.
func (c *Conn) read(br *bufio.Reader) {
	var buf []byte
	for {
		rec, err := durable.ReadFrame(br, &buf)
		if err != nil {
			c.CloseWithError(fmt.Errorf("upgrade: connection lost: %w", err))
			break
		}
		c.frames.Add(1)
		if err := c.role.Dispatch(rec); err != nil {
			c.CloseWithError(err)
			break
		}
	}
	if c.role.Closed != nil {
		c.role.Closed(c.err)
	}
}

// watch is the watchdog, per connection rather than per call, which
// keeps a timer off each call's path: every interval it asks the role
// whether a reply is owed, and closes the connection when one was owed
// at the last tick, still is, and no frame has arrived since.
func (c *Conn) watch(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	var read uint64
	owed := false
	var tick func()
	tick = func() {
		if c.Err() != nil {
			return
		}
		n, now := c.frames.Load(), c.role.Owed()
		if owed && now && n == read {
			c.CloseWithError(ErrStalled)
			return
		}
		read, owed = n, now
		afterFunc(interval, tick)
	}
	afterFunc(interval, tick)
}
