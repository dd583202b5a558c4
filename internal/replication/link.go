package replication

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"

	"reef/internal/durable"
	"reef/internal/trace"
	"reef/internal/upgrade"
)

// linkBufSize sizes a sender's write buffer, and bounds the frame
// buffer a receiver keeps between batches; a batch larger than the write
// buffer goes straight through it to the connection. ackBufSize sizes
// the buffers that only ever hold a batch header or an ack (each is
// tens of bytes) and grow for a longer one.
const (
	linkBufSize = 4 << 10
	ackBufSize  = 128
)

// Link is the sending end of one replication link: a connection to a
// peer's upgrade route, opened once, over which batches and their acks
// take turns. It is not safe for concurrent use.
type Link struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer
	// deadline bounds each batch: it closes the connection when a batch
	// is not acked within timeout, so a stalled peer fails the batch
	// instead of blocking its sender.
	deadline *time.Timer
	timeout  time.Duration
	hdr, buf []byte
	peer     string // the peer's base URL, named in Ship's errors
}

// DialLink opens a link to peer through rt as a stream client opens its
// stream, with a hello declaring the link and the sender's ID and epoch,
// fixed for the link's life. Any answer but 101 fails the dial, and so
// does a hello refusing the link or naming a node other than peer.ID
// (when set). timeout bounds the dial and then each batch.
func DialLink(rt http.RoundTripper, peer Node, source string, epoch int64, timeout time.Duration) (*Link, error) {
	rwc, err := upgrade.Open(rt, peer.BaseURL, upgrade.Hello{Link: true, Source: source, Epoch: epoch}, peer.ID, timeout)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	l := &Link{
		rwc:      rwc,
		br:       bufio.NewReaderSize(rwc, ackBufSize),
		bw:       bufio.NewWriterSize(rwc, linkBufSize),
		deadline: time.AfterFunc(timeout, func() { rwc.Close() }),
		timeout:  timeout,
		buf:      make([]byte, 0, ackBufSize),
		peer:     peer.BaseURL,
	}
	l.deadline.Stop() // armed by each Ship: an idle link stays up
	return l, nil
}

// Ship sends one batch — its header, then frames, which must be
// h.Bytes long — and reads the peer's ack. An AckError ack returns an
// error too; the peer closes the link after it. Every error names the
// peer's base URL.
func (l *Link) Ship(h durable.ReplBatch, frames []byte) (durable.ReplAck, error) {
	l.deadline.Reset(l.timeout)
	defer l.deadline.Stop()
	l.hdr = durable.AppendReplBatch(l.hdr[:0], h)
	l.bw.Write(l.hdr) // a write error sticks to bw, and Flush returns it
	l.bw.Write(frames)
	var ack durable.ReplAck
	err := l.bw.Flush()
	if err == nil {
		ack, err = readAck(l.br, &l.buf)
	}
	if err == nil && ack.Kind == durable.AckError {
		err = fmt.Errorf("peer refused it: %s", ack.Err)
	}
	if err != nil {
		err = fmt.Errorf("replication: batch to %s: %w", l.peer, err)
	}
	return ack, err
}

// Close closes the link's connection. It may run while Ship does, which
// then fails.
func (l *Link) Close() error {
	l.deadline.Stop()
	return l.rwc.Close()
}

// readAck reads one ack record, the sender's half of the link's decoding.
func readAck(r io.Reader, buf *[]byte) (durable.ReplAck, error) {
	rec, err := durable.ReadFrame(r, buf)
	if err != nil {
		return durable.ReplAck{}, err
	}
	return durable.DecodeReplAck(rec)
}

// readBatch reads one batch header and the frames behind it into
// *frames (reused across calls), the receiver's half of the link's
// decoding. It reads no frames of a batch longer than MaxBatchBytes.
func readBatch(r io.Reader, buf, frames *[]byte) (durable.ReplBatch, error) {
	rec, err := durable.ReadFrame(r, buf)
	if err != nil {
		return durable.ReplBatch{}, err
	}
	h, err := durable.DecodeReplBatch(rec)
	if err != nil {
		return h, err
	}
	if h.Bytes > MaxBatchBytes {
		return h, fmt.Errorf("replication: batch of %d bytes, over the %d bound", h.Bytes, MaxBatchBytes)
	}
	*frames = slices.Grow((*frames)[:0], h.Bytes)[:h.Bytes]
	if _, err := io.ReadFull(r, *frames); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return h, err
	}
	return h, nil
}

// AcceptLink takes over an upgraded inbound link from source, whose
// hellos the caller has exchanged, and serves it on its own
// goroutine until the sender closes it, it fails, or the manager
// closes. rw buffers conn; its reader may hold bytes already read, and
// its writer must hold none.
func (m *Manager) AcceptLink(conn net.Conn, rw *bufio.ReadWriter, source string, epoch int64) {
	if !m.track(conn) {
		conn.Close()
		return
	}
	go m.serveLink(conn, rw.Reader, source, epoch)
}

// serveLink applies the batches of one inbound link in order, answering
// each with its ack, one write each. A refused batch is answered with an
// error ack and ends the link, so no frame of it is read as a header.
func (m *Manager) serveLink(conn net.Conn, br *bufio.Reader, source string, epoch int64) {
	defer m.untrack(conn)
	buf, out := make([]byte, 0, ackBufSize), make([]byte, 0, ackBufSize)
	var frames []byte
	for {
		h, err := readBatch(br, &buf, &frames)
		var ack durable.ReplAck
		if err != nil {
			ack = ackError(err)
		} else {
			begin := time.Now()
			ack = m.IngestRecords(source, epoch, h, frames)
			if m.opt.Trace != nil {
				m.opt.Trace.Record(trace.Span{
					Trace: trace.ID(h.Trace), Op: "repl.apply", Node: m.opt.Self, Shard: -1,
					Start: begin, Duration: time.Since(begin), Err: ack.Err,
				})
			}
		}
		if cap(frames) > linkBufSize {
			frames = nil // a large batch's buffer is not kept for the next
		}
		out = durable.AppendReplAck(out[:0], ack)
		if _, werr := conn.Write(out); werr != nil || ack.Kind == durable.AckError {
			return
		}
	}
}

// track registers a link for Close to close, and counts it in wg until
// untrack; false means the manager is closed.
func (m *Manager) track(c io.Closer) bool {
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	if m.links == nil {
		return false
	}
	m.links[c] = struct{}{}
	m.wg.Add(1)
	return true
}

// untrack closes a tracked link and forgets it.
func (m *Manager) untrack(c io.Closer) {
	m.linkMu.Lock()
	delete(m.links, c)
	m.linkMu.Unlock()
	c.Close()
	m.wg.Done()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
