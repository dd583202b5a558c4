package replication

import (
	"errors"
	"net/http"
	"slices"
	"sync"
	"time"

	"reef/internal/durable"
	"reef/internal/trace"
)

// Wire protocol: a sender ships to each peer over one long-lived link,
// opened as a stream client opens its stream (internal/upgrade): an
// HTTP/1.1 Upgrade to reef-stream/1 on <peer>/v1/stream, then hellos.
// The sender's hello declares the link role with its node ID and process
// epoch (log numbering era), fixed for the link's life; the peer's names
// the peer, which must be the node the seed list names. After the hellos,
// the link carries internal/durable frames: per batch,
// one OpReplBatch record (prev and last watermarks, record count, cut
// flag, frame byte length, trace ID) followed by the batch's WAL frames
// (the on-disk codec IS the wire format), answered by one OpReplAck
// record: ok with the acked position, conflict with the receiver's
// authoritative position when the watermarks disagree (the sender
// adopts it and re-ships from there), or an error, after which the
// receiver closes the link. A resync's records ship as batches too, the
// first with a count below last-prev, superseding the gap up to the
// cut; a Cut batch is on the receiver's stable storage before its ack.

// MaxBatchBytes bounds a batch's body, sender and receiver alike: the
// largest frame durable writes, so every record ships, alone if it must.
const MaxBatchBytes = durable.MaxRecordLen + durable.FrameHeaderLen

// shipWindow caps records per shipped batch; lagWindow bounds the
// per-peer lag sample ring for the p99 gauge; defaultTimeout bounds a
// link's dial and each batch unless Options.HTTPClient sets a Timeout.
const (
	shipWindow     = 256
	lagWindow      = 512
	defaultTimeout = 10 * time.Second
)

// peer is one outbound stream: its queue, position, health and lag
// samples.
type peer struct {
	node   Node
	notify chan struct{}

	mu sync.Mutex
	// queue holds the entries offered for this peer and not yet acked,
	// in the peer's own sequence: seq next-len(queue)+1 through next.
	// It starts right after acked unless it overflowed Retain, the gap
	// a resync repairs, or it starts with a refill not yet acked at all.
	queue []entry
	next  int64 // seq of the last entry ever queued
	acked int64 // the receiver's acked position
	// cutFirst..cutLast are the last resync's refill, exempt from Retain;
	// while cutFirst heads the queue, a batch follows any acked position.
	cutFirst, cutLast int64
	resyncs           int64
	lastAck           time.Time
	lastErr           string
	lagMicros         []float64 // ring buffer, newest appended
}

// wake nudges the sender loop; a full buffer means a wake is already
// pending.
func (p *peer) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// push queues one entry and wakes the sender. Once more than retain
// entries follow the refill, the oldest go, the refill with them.
func (p *peer) push(e entry, retain int) {
	p.mu.Lock()
	p.next++
	p.queue = append(p.queue, e)
	if p.next-int64(retain) > p.cutLast {
		p.dropThrough(p.next - int64(retain))
	}
	p.mu.Unlock()
	p.wake()
}

// refill replaces the queue with a resync's cut, numbered after every
// seq the peer was ever assigned, and the entries queued after pin
// behind it; false means Retain evicted some of those.
func (p *peer) refill(cut []entry, pin int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	after := int(p.next - pin)
	if after > len(p.queue) {
		return false
	}
	p.queue = append(cut, p.queue[len(p.queue)-after:]...)
	p.cutFirst, p.cutLast = p.next+1, p.next+int64(len(cut))
	p.next = p.cutLast + int64(after)
	p.resyncs++
	return true
}

// dropThrough removes the queued entries with seq ≤ seq (caller holds
// mu), clearing their slots so the dropped frames are garbage at once.
// Few survivors (the usual ack) move to the front, so the array is
// reused; many (eviction at the Retain cap) stay put, so dropping one
// entry never copies the whole queue.
func (p *peer) dropThrough(seq int64) {
	n := int(min(seq-p.next+int64(len(p.queue)), int64(len(p.queue))))
	if n <= 0 {
		return
	}
	if k := len(p.queue) - n; k <= n {
		copy(p.queue, p.queue[n:])
		clear(p.queue[k:])
		p.queue = p.queue[:k]
		return
	}
	clear(p.queue[:n])
	p.queue = p.queue[n:]
}

// adopt moves the peer to the receiver's position: what it holds
// leaves the queue, and the rest ships again. A position below the
// queue's start leaves a gap only a resync can fill.
func (p *peer) adopt(acked int64) {
	p.mu.Lock()
	p.acked = acked
	p.next = max(p.next, acked)
	p.dropThrough(acked)
	p.mu.Unlock()
}

func (p *peer) success(b batch) {
	p.adopt(b.last)
	p.mu.Lock()
	p.lastAck = time.Now()
	p.lastErr = ""
	for _, at := range b.offeredAt {
		p.lagMicros = append(p.lagMicros, float64(p.lastAck.Sub(at).Microseconds()))
	}
	if len(p.lagMicros) > lagWindow {
		p.lagMicros = p.lagMicros[len(p.lagMicros)-lagWindow:]
	}
	p.mu.Unlock()
}

func (p *peer) fail(err error) {
	p.mu.Lock()
	p.lastErr = err.Error()
	p.mu.Unlock()
}

func (p *peer) status() PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := PeerStatus{
		Node:      p.node.ID,
		Shipped:   p.acked,
		Pending:   int64(len(p.queue)),
		Resyncs:   p.resyncs,
		LastAck:   p.lastAck,
		LastError: p.lastErr,
	}
	if len(p.lagMicros) > 0 {
		s := slices.Clone(p.lagMicros)
		slices.Sort(s)
		ps.LagP99Micros = s[(len(s)*99)/100]
	}
	return ps
}

// batch is one shipping unit: a prefix of the peer's queue.
type batch struct {
	prev, last int64
	frames     []byte
	offeredAt  []time.Time // one per record
	// cut marks refill entries in the batch; resync is set instead of a
	// batch when the queue no longer starts right after acked.
	cut, resync bool
}

// nextBatch cuts the peer's next batch under its lock, at most
// shipWindow records and MaxBatchBytes, appending to frames and at (the
// last batch's buffers, reused). No records means caught up.
func (p *peer) nextBatch(frames []byte, at []time.Time) batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := p.next - int64(len(p.queue)) + 1
	if p.acked+1 < start && start != p.cutFirst {
		return batch{resync: true}
	}
	b := batch{prev: p.acked, cut: start <= p.cutLast, frames: frames, offeredAt: at}
	for _, e := range p.queue[:min(len(p.queue), shipWindow)] {
		if len(b.frames) > 0 && len(b.frames)+len(e.enc) > MaxBatchBytes {
			break
		}
		b.frames = append(b.frames, e.enc...)
		b.offeredAt = append(b.offeredAt, e.at)
	}
	b.last = start - 1 + int64(len(b.offeredAt))
	return b
}

// sendLoop streams one peer until Close: wait for work (or the retry
// tick), then drain batches until caught up or the peer errors. The
// loop owns the peer's link: dialed when there is something to ship,
// dropped on any error, redialed on a later tick. A resync is captured
// only over a live link, so a peer that is down never pins a refill.
func (m *Manager) sendLoop(p *peer) {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opt.RetryInterval)
	defer ticker.Stop()
	var l *Link
	defer func() {
		if l != nil {
			m.untrack(l)
		}
	}()
	var frames []byte // the last batch's buffers, kept while small
	var at []time.Time
	for {
		select {
		case <-m.stop:
			return
		case <-p.notify:
		case <-ticker.C:
		}
		for {
			select {
			case <-m.stop:
				return
			default:
			}
			b := p.nextBatch(frames[:0], at[:0])
			if !b.resync && len(b.offeredAt) == 0 {
				break // caught up
			}
			frames, at = nil, nil
			if cap(b.frames) <= linkBufSize {
				frames, at = b.frames, b.offeredAt
			}
			if l == nil {
				var err error
				if l, err = m.dial(p); err != nil {
					m.opt.Logger.Warn("replication link dial failed",
						"node", m.opt.Self, "peer", p.node.ID, "err", err)
					p.fail(err)
					break // wait a tick, retry
				}
			}
			if b.resync {
				m.opt.Logger.Info("replication resync",
					"node", m.opt.Self, "peer", p.node.ID)
				if err := m.resync(p); err != nil {
					m.opt.Logger.Warn("replication resync failed",
						"node", m.opt.Self, "peer", p.node.ID, "err", err)
					p.fail(err)
					break
				}
				continue
			}
			ack, err := m.ship(l, b)
			if err != nil {
				m.opt.Logger.Warn("replication batch ship failed",
					"node", m.opt.Self, "peer", p.node.ID,
					"records", len(b.offeredAt), "err", err)
				m.untrack(l)
				l = nil
				p.fail(err)
				break
			}
			if ack.Kind == durable.AckConflict {
				p.adopt(ack.Acked)
				continue
			}
			p.success(b)
		}
	}
}

// dial opens the peer's link through the configured transport, for
// Close to close while it lives. Each batch's deadline is the client's
// timeout.
func (m *Manager) dial(p *peer) (*Link, error) {
	rt := m.opt.HTTPClient.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	timeout := m.opt.HTTPClient.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	l, err := DialLink(rt, p.node, m.opt.Self, m.epoch, timeout)
	if err != nil {
		return nil, err
	}
	if !m.track(l) {
		l.Close()
		return nil, errors.New("replication: manager closed")
	}
	return l, nil
}

// ship sends one batch over the link. Each batch mints its own trace
// ID: the header carries it, the receiver records its apply under it,
// and the sender records the matching repl.records span (when
// Options.Trace is set), so one ID stitches both nodes.
func (m *Manager) ship(l *Link, b batch) (durable.ReplAck, error) {
	h := durable.ReplBatch{
		Prev: b.prev, Last: b.last, Count: len(b.offeredAt), Cut: b.cut,
		Bytes: len(b.frames), Trace: trace.NewID(),
	}
	begin := time.Now()
	ack, err := l.Ship(h, b.frames)
	if m.opt.Trace != nil {
		m.opt.Trace.Record(trace.Span{
			Trace: h.Trace, Op: "repl.records", Node: m.opt.Self, Shard: -1,
			Start: begin, Duration: time.Since(begin), Err: errString(err),
		})
	}
	return ack, err
}

// resync refills a peer that fell off its queue with its share of a
// full state cut. The peer's position is pinned at its last queued seq
// inside the capture, under the journal lock the tap runs under
// (journal → peer, Offer's own lock order), so every record is either
// in the cut or queued after the pin, never both.
func (m *Manager) resync(p *peer) error {
	var pin int64
	cut, err := m.opt.Applier.CaptureReplicationState(func() {
		p.mu.Lock()
		pin = p.next
		p.mu.Unlock()
	})
	if err != nil {
		return err
	}
	var share []entry
	for _, rec := range cut {
		m.route(rec, func(rec durable.Record, to []*peer) {
			if slices.Contains(to, p) {
				share = append(share, entry{enc: rec.AppendEncoded(nil), at: time.Now()})
			}
		})
	}
	if !p.refill(share, pin) {
		return errors.New("replication: more than Retain records queued during the resync capture")
	}
	return nil
}
