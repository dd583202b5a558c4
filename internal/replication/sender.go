package replication

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"reef/internal/trace"
)

// Wire protocol: a batch is POSTed to <peer>/v1/replication/records as
// concatenated durable WAL frames (the on-disk codec IS the wire
// format), with the stream handshake in headers:
//
//	X-Reef-Replication-Source  sender node ID
//	X-Reef-Replication-Epoch   sender process epoch (log numbering era)
//	X-Reef-Replication-Prev    watermark before this batch
//	X-Reef-Replication-Last    watermark after this batch
//	X-Reef-Replication-Count   record count
//
// The receiver answers 200 with an Ack, or 409 with its authoritative
// Ack when the watermarks disagree (the sender adopts it and re-ships
// from there). A resync cut POSTs to /v1/replication/snapshot with the
// same Source/Epoch headers plus X-Reef-Replication-Seq; its body is
// framed records too, the run that rebuilds the sender's state.
const (
	HdrSource = "X-Reef-Replication-Source"
	HdrEpoch  = "X-Reef-Replication-Epoch"
	HdrPrev   = "X-Reef-Replication-Prev"
	HdrLast   = "X-Reef-Replication-Last"
	HdrCount  = "X-Reef-Replication-Count"
	HdrSeq    = "X-Reef-Replication-Seq"
)

// RecordsPath and SnapshotPath are the ingest routes, shared with
// reefhttp so sender and server cannot drift.
const (
	RecordsPath  = "/v1/replication/records"
	SnapshotPath = "/v1/replication/snapshot"
)

// shipWindow caps records per shipped batch; lagWindow bounds the
// per-peer lag sample ring for the p99 gauge.
const (
	shipWindow = 256
	lagWindow  = 512
)

// peer is one outbound stream: its queue, position, health and lag
// samples.
type peer struct {
	node   Node
	notify chan struct{}

	mu sync.Mutex
	// queue holds the entries offered for this peer and not yet acked,
	// in the peer's own sequence: seq next-len(queue)+1 through next.
	// It starts right after acked unless it overflowed Retain, which is
	// what a resync repairs.
	queue     []entry
	next      int64 // seq of the last entry ever queued
	acked     int64 // the receiver's acked position
	resyncs   int64
	lastAck   time.Time
	lastErr   string
	lagMicros []float64 // ring buffer, newest appended
}

// wake nudges the sender loop; a full buffer means a wake is already
// pending.
func (p *peer) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// push queues one entry, evicting the oldest past retain, and wakes
// the sender.
func (p *peer) push(e entry, retain int) {
	p.mu.Lock()
	p.next++
	p.queue = append(p.queue, e)
	p.dropThrough(p.next - int64(retain))
	p.mu.Unlock()
	p.wake()
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

func (p *peer) success(last int64, lags []float64) {
	p.adopt(last)
	p.mu.Lock()
	p.lastAck = time.Now()
	p.lastErr = ""
	p.lagMicros = append(p.lagMicros, lags...)
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
	prev, last int64 // count is last-prev
	frames     []byte
	offeredAt  []time.Time
	// resync is set instead when the queue no longer starts right
	// after the acked position.
	resync bool
}

// nextBatch cuts the peer's next batch under its lock. An empty batch
// (prev==last) means the peer is caught up.
func (p *peer) nextBatch() batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.acked < p.next-int64(len(p.queue)) {
		return batch{resync: true}
	}
	n := min(len(p.queue), shipWindow)
	b := batch{prev: p.acked, last: p.acked + int64(n), offeredAt: make([]time.Time, n)}
	for i, e := range p.queue[:n] {
		b.frames = append(b.frames, e.enc...)
		b.offeredAt[i] = e.at
	}
	return b
}

// sendLoop streams one peer until Close: wait for work (or the retry
// tick), then drain batches until caught up or the peer errors.
func (m *Manager) sendLoop(p *peer) {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opt.RetryInterval)
	defer ticker.Stop()
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
			b := p.nextBatch()
			if b.resync {
				m.opt.Logger.Info("replication resync",
					"node", m.opt.Self, "peer", p.node.ID)
				if err := m.sendSnapshot(p); err != nil {
					m.opt.Logger.Warn("replication snapshot ship failed",
						"node", m.opt.Self, "peer", p.node.ID, "err", err)
					p.fail(err)
					break // wait a tick, retry
				}
				continue
			}
			if b.last == b.prev {
				break // caught up
			}
			ack, conflict, err := m.post(p, RecordsPath, "repl.records", b.frames, http.Header{
				HdrPrev:  {strconv.FormatInt(b.prev, 10)},
				HdrLast:  {strconv.FormatInt(b.last, 10)},
				HdrCount: {strconv.FormatInt(b.last-b.prev, 10)},
			})
			if err != nil {
				m.opt.Logger.Warn("replication batch ship failed",
					"node", m.opt.Self, "peer", p.node.ID,
					"records", b.last-b.prev, "err", err)
				p.fail(err)
				break
			}
			if conflict {
				p.adopt(ack.Acked)
				continue
			}
			lags := make([]float64, len(b.offeredAt))
			now := time.Now()
			for i, at := range b.offeredAt {
				lags[i] = float64(now.Sub(at).Microseconds())
			}
			p.success(b.last, lags)
		}
	}
}

// post ships framed records to one of a peer's ingest routes, with the
// source and epoch headers added to hdr; op names its trace span.
// conflict=true carries the receiver's position from a 409.
func (m *Manager) post(p *peer, path, op string, frames []byte, hdr http.Header) (Ack, bool, error) {
	req, err := http.NewRequest(http.MethodPost, p.node.BaseURL+path, bytes.NewReader(frames))
	if err != nil {
		return Ack{}, false, err
	}
	req.Header = hdr
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HdrSource, m.opt.Self)
	req.Header.Set(HdrEpoch, strconv.FormatInt(m.epoch, 10))
	return m.doShip(req, op)
}

// sendSnapshot resyncs a peer that fell off its queue: capture a cut,
// ship it, and adopt the cut's position, which drops the queue through
// it. The position is pinned at the peer's last queued seq inside the
// capture, under the journal lock the tap runs under (journal → peer,
// Offer's own lock order), so every record is either in the cut or
// queued after the pinned seq, never both.
func (m *Manager) sendSnapshot(p *peer) error {
	var seq int64
	cut, err := m.opt.Applier.CaptureReplicationState(func() {
		p.mu.Lock()
		seq = p.next
		p.mu.Unlock()
	})
	if err != nil {
		return err
	}
	// A cut's answer is authoritative, a 409 included.
	ack, _, err := m.post(p, SnapshotPath, "repl.snapshot", cut, http.Header{HdrSeq: {strconv.FormatInt(seq, 10)}})
	if err != nil {
		return err
	}
	p.adopt(ack.Acked)
	p.mu.Lock()
	p.resyncs++
	p.mu.Unlock()
	return nil
}

// doShip executes a replication POST and decodes the Ack envelope. Each
// ship mints its own trace ID: the header makes the receiver's span ring
// record the apply under it, and the sender records the matching ship
// span (when Options.Trace is set), so one ID stitches both nodes.
func (m *Manager) doShip(req *http.Request, op string) (Ack, bool, error) {
	id := trace.NewID()
	req.Header.Set(trace.Header, id.String())
	begin := time.Now()
	ack, conflict, err := m.doShipRaw(req)
	if m.opt.Trace != nil {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		m.opt.Trace.Record(trace.Span{
			Trace: id, Op: op, Node: m.opt.Self, Shard: -1,
			Start: begin, Duration: time.Since(begin), Err: errStr,
		})
	}
	return ack, conflict, err
}

func (m *Manager) doShipRaw(req *http.Request) (Ack, bool, error) {
	resp, err := m.opt.HTTPClient.Do(req)
	if err != nil {
		return Ack{}, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Ack{}, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusConflict:
		var ack Ack
		if err := json.Unmarshal(data, &ack); err != nil {
			return Ack{}, false, fmt.Errorf("replication: bad ack from %s: %w", req.Host, err)
		}
		return ack, resp.StatusCode == http.StatusConflict, nil
	default:
		return Ack{}, false, fmt.Errorf("replication: peer answered %s: %s", resp.Status, truncate(data, 200))
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
