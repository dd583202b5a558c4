package replication

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
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
	conn        *upgrade.Conn
	hdr, frames []byte               // the batch in flight, the writer's until its ack
	acks        chan durable.ReplAck // read and not yet taken, oldest first
	inFlight    atomic.Int32         // batches sent and not yet acked
	peer        string               // the peer's base URL, named in Ship's errors
}

// DialLink opens a link to peer through rt as a stream client opens its
// stream, with a hello declaring the link and the sender's ID and epoch,
// fixed for the link's life. Any answer but 101 fails the dial, and so
// does a hello refusing the link or naming a node other than peer.ID
// (when set). timeout bounds the dial, and then how long an ack may be
// owed with nothing read (see upgrade.Role).
func DialLink(rt http.RoundTripper, peer Node, source string, epoch int64, timeout time.Duration) (*Link, error) {
	rwc, err := upgrade.Open(context.Background(), rt, peer.BaseURL, upgrade.Hello{Link: true, Source: source, Epoch: epoch}, peer.ID, timeout)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	l := &Link{acks: make(chan durable.ReplAck, 1), peer: peer.BaseURL}
	l.conn = upgrade.Start(rwc, upgrade.Role{
		Dispatch: l.dispatch, Owed: func() bool { return l.inFlight.Load() > 0 },
		ReadBuf: ackBufSize, WriteBuf: linkBufSize, Timeout: timeout,
	})
	return l, nil
}

// Ship sends one batch — its header, then frames, which must be
// h.Bytes long — and waits for the peer's ack. An AckError ack returns
// an error too; the peer closes the link after it. Every error names the
// peer's base URL.
func (l *Link) Ship(h durable.ReplBatch, frames []byte) (durable.ReplAck, error) {
	// The writer is done with the last batch: its ack came back, or its
	// connection closed and Ship waited for the writer to exit.
	l.hdr, l.frames = durable.AppendReplBatch(l.hdr[:0], h), frames
	l.inFlight.Add(1)
	var ack durable.ReplAck
	// Send fails on a closed link, whose late ack answers no new batch.
	err := l.conn.Send(context.Background(), &l.hdr)
	if err == nil {
		err = l.conn.Send(context.Background(), &l.frames)
	}
	if err == nil {
		select {
		case ack = <-l.acks:
		case <-l.conn.Done():
			select { // an ack read before the connection closed still answers
			case ack = <-l.acks:
			default:
				err = l.conn.Err()
			}
		}
	}
	if err == nil && ack.Kind == durable.AckError {
		err = fmt.Errorf("peer refused it: %s", ack.Err)
	}
	if err != nil {
		l.conn.CloseWithError(err) // a refused batch ends the link too
		<-l.conn.Done()            // and then the writer holds frames no longer
		err = fmt.Errorf("replication: batch to %s: %w", l.peer, err)
	}
	l.frames = nil
	return ack, err
}

// Close closes the link's connection. It may run while Ship does, which
// then fails.
func (l *Link) Close() error {
	l.conn.CloseWithError(upgrade.ErrClosed)
	return nil
}

// dispatch takes an ack for the oldest batch in flight, the sender's
// half of the link's decoding.
func (l *Link) dispatch(rec durable.Record) error {
	ack, err := durable.DecodeReplAck(rec)
	if err != nil {
		return err
	}
	if l.inFlight.Add(-1) < 0 {
		return errors.New("replication: an ack with no batch in flight")
	}
	l.acks <- ack
	return nil
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

// AcceptLink serves an upgraded inbound link from source, whose hellos
// the caller has exchanged, until the sender closes it, it fails, or the
// manager closes, and then closes conn. rw buffers conn; its reader may
// hold bytes already read, and its writer must hold none.
func (m *Manager) AcceptLink(conn net.Conn, rw *bufio.ReadWriter, source string, epoch int64) {
	if m.links.Add(conn) != nil {
		conn.Close()
		return
	}
	defer m.links.Remove(conn)
	m.serveLink(conn, rw.Reader, source, epoch)
}

// serveLink applies the batches of one inbound link in order, answering
// each with its ack, one write each. A refused batch is answered with an
// error ack and ends the link, so no frame of it is read as a header.
func (m *Manager) serveLink(conn net.Conn, br *bufio.Reader, source string, epoch int64) {
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

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
