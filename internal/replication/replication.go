// Package replication ships a node's WAL to its replicas and absorbs
// the streams peers ship here. It is the asynchronous half of the
// reef's replicated placement: every user has a primary plus k
// replicas (routing.ReplicaSet — the primary is the unchanged FNV-1a
// slot, replicas the next k slots), the primary keeps serving at local
// speed, and each durable record it writes is forwarded — already in
// its on-disk frame — to the user's replica nodes, over one upgraded
// HTTP connection per peer (see link.go).
//
// One Manager runs per node and plays both roles at once:
//
//   - Sender: the deployment's replication tap calls Offer for every
//     locally-originated record. Offer decodes just enough of the
//     payload to find the record's destination peers and appends its
//     encoded frame to each one's own bounded queue, numbered in that
//     peer's own sequence. Each peer's sender ships a prefix of its
//     queue per batch, bounded in records and bytes, with a dense
//     prev/last handshake, and drops the prefix once the peer acks it,
//     retrying forever with the journal as source of truth. A peer
//     nothing was offered to is never contacted. A peer whose queue
//     overflows Retain (it was down or lagging that long) has it
//     refilled with its share of a full state cut; no other peer's
//     queue is touched.
//
//   - Receiver: AcceptLink serves a peer's link, and IngestRecords
//     applies each batch on it through the deployment (which journals
//     it WITHOUT re-feeding the tap, so mutual replication cannot
//     loop) with the source's new applied watermark as the batch's
//     last record, and acks only after the deployment has handed the
//     whole batch to the OS. A restarted replica reads its watermarks
//     back from its own log (Applier.ReplicationPositions), so it
//     resumes exactly where that log ends: never past records it lost,
//     never re-applying ones it holds.
//
// Consistency model: asynchronous. An acked client write is durable on
// the primary only; replicas trail by the shipping lag (exported as a
// gauge). A primary that dies before shipping its tail loses those
// records on the failover path even though they sit in its own WAL —
// they resurface only if the node rejoins with its disk intact, at
// which point its sender (fresh epoch) no longer replays them. This is
// the documented trade for zero write-path coordination.
package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"reef/internal/attention"
	"reef/internal/durable"
	"reef/internal/metrics"
	"reef/internal/routing"
	"reef/internal/trace"
	"reef/internal/upgrade"
)

// Node is one cluster member, mirroring the seed list the cluster
// router uses — placement follows list position.
type Node struct {
	ID      string `json:"id"`
	BaseURL string `json:"base_url"`
}

// Applier is the deployment surface the manager replicates through
// (implemented by reef.Centralized).
type Applier interface {
	// ApplyReplicated applies and journals a peer's records in order,
	// without re-feeding the replication tap, and hands them to the OS
	// before returning. The manager closes each batch with an
	// OpReplPosition record, which the applier must journal after the
	// records it covers and report back through ReplicationPositions.
	ApplyReplicated([]durable.Record) error
	// ApplyReplicatedCut applies a batch that carries resync cut records
	// as ApplyReplicated does, and has it on stable storage before
	// returning.
	ApplyReplicatedCut([]durable.Record) error
	// CaptureReplicationState cuts this node's full state for a peer
	// that can no longer catch up from the record stream, as the run of
	// records that rebuilds it. It calls pin once while no record can
	// reach the tap, so what pin reads of the queues matches the cut
	// exactly.
	CaptureReplicationState(pin func()) ([]durable.Record, error)
	// ReplicationPositions reports the positions the applier's log holds,
	// one per source; New resumes every inbound stream from them.
	ReplicationPositions() []durable.ReplPosition
}

// Options configures a Manager.
type Options struct {
	// Self is this node's ID; it must appear in Nodes.
	Self string
	// Nodes is the cluster seed list in placement order.
	Nodes []Node
	// Replicas is k: each user's records ship to the k nodes after the
	// user's primary slot. 0 disables shipping (the manager still
	// receives, so mixed configurations degrade safely).
	Replicas int
	// Applier is the local deployment.
	Applier Applier
	// Dir is where releases that kept the receiver's positions outside
	// the WAL wrote replication-positions.json. When the applier reports
	// no positions and that file exists, New journals its positions
	// through the applier once and removes it, so a node upgraded in
	// place resumes its inbound streams. Nothing else is read or written
	// there.
	Dir string
	// Retain caps each peer's queue (default 65536 entries). Entries the
	// peer has acked are dropped at once, so the cap binds only while
	// that peer is down or lagging; a peer that falls past it is
	// resynced with its share of a state cut, which it does not count.
	Retain int
	// RetryInterval paces sender retries and idle re-checks
	// (default 250ms).
	RetryInterval time.Duration
	// HTTPClient's Transport dials each peer's link (default: a client
	// with http.DefaultTransport), and its Timeout bounds the dial and
	// each batch (default 10s).
	HTTPClient *http.Client
	// Logger receives structured shipping events (resyncs, ship
	// failures) with the node ID attached. Nil discards them.
	Logger *slog.Logger
	// Trace, when set, records one span per shipped batch and one per
	// applied batch into the node's span ring. Each ship mints a trace
	// ID that travels to the receiver in the batch header, so a batch's
	// send and its apply stitch together across the two nodes' rings.
	Trace *trace.Recorder
}

// entry is one queued record and its offer time (the lag clock starts
// here). The record is kept pre-encoded, one frame shared by every
// peer it goes to: batches are cut by concatenation, and a flat byte
// slice keeps the queues nearly free for the garbage collector to scan
// — decoded records are maps all the way down.
type entry struct {
	enc []byte // one durable WAL frame
	at  time.Time
}

// sourcePos is the receiver's position for one source.
type sourcePos struct {
	Epoch   int64
	Applied int64
	// LastIngest is informational (status page), not part of the
	// handshake.
	LastIngest time.Time
}

// Manager is one node's replication endpoint: sender of the local WAL
// stream, receiver of the peers'.
type Manager struct {
	opt   Options
	epoch int64
	self  int // index of Self in Nodes
	// peers are the other nodes in node order. Offer runs under the
	// deployment's journal lock and takes each destination peer's lock
	// only to append, so nothing here may wait on locks that a journal
	// holder could need.
	peers []*peer

	// inMu serializes ingest: per-source ordering of apply and position.
	// Apply runs under it; the lock order in→journal→peer is acyclic
	// with the tap's journal→peer.
	inMu    sync.Mutex
	sources map[string]*sourcePos

	links upgrade.Set // the live links, inbound and outbound, which Close closes

	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds and starts a Manager: one sender goroutine per peer.
func New(opt Options) (*Manager, error) {
	if opt.Applier == nil {
		return nil, errors.New("replication: Options.Applier is required")
	}
	self := -1
	for i, n := range opt.Nodes {
		if n.ID == opt.Self {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("replication: self %q not in the node list", opt.Self)
	}
	if opt.Replicas < 0 || opt.Replicas > len(opt.Nodes)-1 {
		return nil, fmt.Errorf("replication: replicas %d out of range for %d nodes", opt.Replicas, len(opt.Nodes))
	}
	if opt.Retain <= 0 {
		opt.Retain = 65536
	}
	if opt.RetryInterval <= 0 {
		opt.RetryInterval = 250 * time.Millisecond
	}
	if opt.HTTPClient == nil {
		opt.HTTPClient = &http.Client{Timeout: defaultTimeout}
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.DiscardHandler)
	}
	m := &Manager{
		opt:     opt,
		epoch:   time.Now().UnixNano(),
		self:    self,
		sources: make(map[string]*sourcePos),
		stop:    make(chan struct{}),
	}
	for _, p := range opt.Applier.ReplicationPositions() {
		m.sources[p.Source] = &sourcePos{Epoch: p.Epoch, Applied: p.Applied}
	}
	if len(m.sources) == 0 && opt.Dir != "" {
		if err := m.importLegacyPositions(); err != nil {
			return nil, err
		}
	}
	for i, n := range opt.Nodes {
		if i == self {
			continue
		}
		p := &peer{node: n, notify: make(chan struct{}, 1)}
		m.peers = append(m.peers, p)
		m.wg.Add(1)
		go m.sendLoop(p)
	}
	return m, nil
}

// Close stops the senders and closes every link, inbound and outbound,
// and waits for their goroutines. An in-flight batch fails; nothing new
// ships. An http.Server's Close leaves the inbound links it handed over
// open, so the manager closes them here. The unshipped queues are the
// async-replication loss window — it survives in the local WAL and is
// NOT replayed by a future process (fresh epoch), by design.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.stop) })
	m.links.Close()
	m.wg.Wait()
}

// Offer is the deployment tap: called under the journal lock for every
// locally-originated record, in WAL order. It must stay quick and must
// not wait on ingest or HTTP work.
func (m *Manager) Offer(rec durable.Record) {
	if m == nil || m.opt.Replicas == 0 || len(m.opt.Nodes) <= 1 {
		return
	}
	m.route(rec, m.enqueue)
}

// route is the one destination rule, for offered records and resync
// cuts alike: it calls emit with each record and the peers it goes to.
// A user's records go to the replica set; flags, which carry no user,
// to this node's k ring successors (the flag store is an idempotent
// OR-set); a cut's pending-ID counter to every peer.
func (m *Manager) route(rec durable.Record, emit func(durable.Record, []*peer)) {
	switch rec.Op {
	case durable.OpFlag:
		emit(rec, m.ringPeers())
	case durable.OpPendingSeq:
		emit(rec, m.peers)
	case durable.OpClicks:
		m.routeClicks(rec, emit)
	default:
		user, err := durable.RecordUser(rec)
		if err != nil || user == "" {
			return
		}
		emit(rec, m.userPeers(user))
	}
}

// routeClicks routes a click batch by its users. A peer every click goes
// to gets the original frame; any other destination peer one re-encoded
// batch of just its own clicks.
func (m *Manager) routeClicks(rec durable.Record, emit func(durable.Record, []*peer)) {
	users, err := durable.ClickUsers(rec)
	if err != nil {
		return
	}
	to := make([][]*peer, len(users)) // each click's destination peers
	for i, u := range users {
		if i > 0 && u == users[i-1] {
			to[i] = to[i-1]
		} else {
			to[i] = m.userPeers(u)
		}
	}
	var whole, part []*peer
	for _, p := range m.peers {
		n := 0
		for _, d := range to {
			if slices.Contains(d, p) {
				n++
			}
		}
		switch n {
		case 0:
		case len(users):
			whole = append(whole, p)
		default:
			part = append(part, p)
		}
	}
	emit(rec, whole)
	if len(part) == 0 {
		return
	}
	batch, err := durable.DecodeClicks(rec)
	if err != nil {
		return
	}
	for _, p := range part {
		var own []attention.Click
		for i, cl := range batch.Clicks {
			if slices.Contains(to[i], p) {
				own = append(own, cl)
			}
		}
		emit(durable.ClicksRecord(own), []*peer{p})
	}
}

// userPeers is a user's replica set as peers, self left out.
func (m *Manager) userPeers(user string) []*peer {
	var out []*peer
	for _, s := range routing.ReplicaSet(user, len(m.opt.Nodes), m.opt.Replicas) {
		if s != m.self {
			out = append(out, m.peerAt(s))
		}
	}
	return out
}

// ringPeers is the k successors of this node's own slot.
func (m *Manager) ringPeers() []*peer {
	out := make([]*peer, m.opt.Replicas)
	for i := range out {
		out[i] = m.peerAt((m.self + 1 + i) % len(m.opt.Nodes))
	}
	return out
}

// peerAt is the peer at node slot s, which must not be self's.
func (m *Manager) peerAt(s int) *peer {
	if s > m.self {
		s--
	}
	return m.peers[s]
}

// enqueue appends one encoded record to each destination peer's queue.
func (m *Manager) enqueue(rec durable.Record, to []*peer) {
	if len(to) == 0 {
		return
	}
	e := entry{enc: rec.AppendEncoded(nil), at: time.Now()}
	for _, p := range to {
		p.push(e, m.opt.Retain)
	}
}

// IngestRecords is the receiver half of the batch protocol: decode the
// frames h heads, check the watermark handshake, and apply them with the
// new position as the batch's last record, so it is journaled after the
// records it covers, on stable storage before the ack if it carries a
// resync's records (h.Cut), handed to the OS otherwise. It answers with
// the link's ack: AckOK through h.Last; AckConflict carrying this
// node's position, which the sender adopts and re-ships from, when
// h.Prev is not it (receiver restarted, sender restarted with a new
// epoch, or a missed batch); AckError with the reason otherwise.
func (m *Manager) IngestRecords(source string, epoch int64, h durable.ReplBatch, frames []byte) durable.ReplAck {
	recs, err := durable.Replay(frames)
	switch {
	case err != nil:
		return ackError(fmt.Errorf("replication: decoding batch from %s: %w", source, err))
	case len(recs) != h.Count:
		return ackError(fmt.Errorf("replication: batch from %s carries %d records, header says %d", source, len(recs), h.Count))
	case h.Last < h.Prev:
		// A count below last-prev supersedes a gap: a resync's first
		// batch, or an older sender's empty one across records for
		// other peers. A last below prev is never valid.
		return ackError(fmt.Errorf("replication: bad batch watermarks prev=%d last=%d count=%d", h.Prev, h.Last, h.Count))
	}
	m.inMu.Lock()
	defer m.inMu.Unlock()
	ss := m.source(source, epoch)
	if h.Prev != ss.Applied {
		return durable.ReplAck{Kind: durable.AckConflict, Acked: ss.Applied}
	}
	apply := m.opt.Applier.ApplyReplicated
	if h.Cut {
		apply = m.opt.Applier.ApplyReplicatedCut
	}
	if err := apply(append(recs, positionRecord(source, epoch, h.Last))); err != nil {
		return ackError(err)
	}
	ss.Applied = h.Last
	ss.LastIngest = time.Now()
	return durable.ReplAck{Kind: durable.AckOK, Acked: h.Last}
}

func ackError(err error) durable.ReplAck {
	return durable.ReplAck{Kind: durable.AckError, Err: err.Error()}
}

func positionRecord(source string, epoch, applied int64) durable.Record {
	return durable.ReplPositionRecord(durable.ReplPosition{Source: source, Epoch: epoch, Applied: applied})
}

// source returns the per-source state, resetting the position when the
// source's epoch changed: a new sender process numbers its log from 1
// again, and only ships records written after its boot.
func (m *Manager) source(id string, epoch int64) *sourcePos {
	ss, ok := m.sources[id]
	if !ok {
		ss = &sourcePos{}
		m.sources[id] = ss
	}
	if ss.Epoch != epoch {
		ss.Epoch = epoch
		ss.Applied = 0
	}
	return ss
}

// importLegacyPositions upgrades a node whose receiver positions an
// older release kept in <Dir>/replication-positions.json: it journals
// them through the applier once, then removes the file so it can never
// shadow a journaled position. Without it, a node upgraded in place
// would answer every running peer with applied 0, and each would
// re-ship or resync everything the node already holds.
func (m *Manager) importLegacyPositions() error {
	path := filepath.Join(m.opt.Dir, "replication-positions.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("replication: reading %s: %w", path, err)
	}
	var file struct {
		Sources map[string]durable.ReplPosition `json:"sources"`
	}
	// A torn file is recoverable the expensive way: every source starts
	// unknown and the handshake resyncs it. It is removed all the same.
	if json.Unmarshal(data, &file) == nil && len(file.Sources) > 0 {
		var recs []durable.Record
		for _, src := range slices.Sorted(maps.Keys(file.Sources)) {
			p := file.Sources[src]
			recs = append(recs, positionRecord(src, p.Epoch, p.Applied))
			m.sources[src] = &sourcePos{Epoch: p.Epoch, Applied: p.Applied}
		}
		if err := m.opt.Applier.ApplyReplicated(recs); err != nil {
			return fmt.Errorf("replication: importing %s: %w", path, err)
		}
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("replication: retiring %s: %w", path, err)
	}
	return nil
}

// --- status --------------------------------------------------------------

// PeerStatus is one outbound stream's position and health.
type PeerStatus struct {
	Node string `json:"node"`
	// Shipped is the peer's acked position in its own sequence; a
	// resync's refill is numbered past every seq the peer was assigned.
	Shipped int64 `json:"shipped"`
	// Pending is the length of the peer's queue: records offered for it
	// and not yet acked, a resync's refill included.
	Pending      int64     `json:"pending"`
	LagP99Micros float64   `json:"lag_p99_micros"`
	Resyncs      int64     `json:"resyncs"`
	LastAck      time.Time `json:"last_ack,omitzero"`
	LastError    string    `json:"last_error,omitempty"`
}

// SourceStatus is one inbound stream's position.
type SourceStatus struct {
	Source     string    `json:"source"`
	Epoch      int64     `json:"epoch"`
	Applied    int64     `json:"applied"`
	LastIngest time.Time `json:"last_ingest,omitzero"`
}

// Status is the admin view of both roles.
type Status struct {
	Self     string         `json:"self"`
	Epoch    int64          `json:"epoch"`
	Replicas int            `json:"replicas"`
	Peers    []PeerStatus   `json:"peers,omitempty"`
	Sources  []SourceStatus `json:"sources,omitempty"`
}

// Status reports stream positions, lag and health for the admin
// endpoint.
func (m *Manager) Status() Status {
	st := Status{Self: m.opt.Self, Epoch: m.epoch, Replicas: m.opt.Replicas}
	for _, p := range m.peers {
		st.Peers = append(st.Peers, p.status())
	}
	m.inMu.Lock()
	for _, id := range slices.Sorted(maps.Keys(m.sources)) {
		ss := m.sources[id]
		st.Sources = append(st.Sources, SourceStatus{
			Source: id, Epoch: ss.Epoch, Applied: ss.Applied, LastIngest: ss.LastIngest,
		})
	}
	m.inMu.Unlock()
	return st
}

// Samples reports the status as the node's replication series: the
// slowest peer's p99 shipping lag, and totals over peers and sources.
func (m *Manager) Samples() []metrics.Sample {
	st := m.Status()
	var pending, resyncs, lagMax, applied float64
	for _, p := range st.Peers {
		pending += float64(p.Pending)
		resyncs += float64(p.Resyncs)
		lagMax = max(lagMax, p.LagP99Micros)
	}
	for _, s := range st.Sources {
		applied += float64(s.Applied)
	}
	return []metrics.Sample{
		{Def: metrics.ReplicationReplicas, Value: float64(st.Replicas)},
		{Def: metrics.ReplicationPeers, Value: float64(len(st.Peers))},
		{Def: metrics.ReplicationPending, Value: pending},
		{Def: metrics.ReplicationResyncs, Value: resyncs},
		{Def: metrics.ReplicationLagP99Micros, Value: lagMax},
		{Def: metrics.ReplicationAppliedRecords, Value: applied},
	}
}

// Stats is the flat view of Samples, the node's replication keys in
// /v1/stats.
func (m *Manager) Stats() map[string]float64 { return metrics.Flat(m.Samples()) }
