package pubsub

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reef/internal/eventalg"
	"reef/internal/metrics"
	"reef/internal/simclock"
)

// Overlay errors.
var (
	// ErrCycle is returned by Connect when the new link would create a
	// cycle; the overlay routes on an acyclic (tree) topology, as
	// Siena-class systems do.
	ErrCycle = errors.New("pubsub: link would create a cycle")
	// ErrUnknownNode is returned when a named node does not exist.
	ErrUnknownNode = errors.New("pubsub: unknown node")
	// ErrQuiesceTimeout is returned by Quiesce when in-flight messages do
	// not drain in time.
	ErrQuiesceTimeout = errors.New("pubsub: quiesce timeout")
)

// OverlayOption configures an Overlay.
type OverlayOption func(*Overlay)

// WithCovering enables or disables covering-based subscription propagation
// (ablation A2 in DESIGN.md). Enabled by default.
func WithCovering(on bool) OverlayOption {
	return func(o *Overlay) { o.covering = on }
}

// WithOverlayClock sets the clock used for event timestamps.
func WithOverlayClock(c simclock.Clock) OverlayOption {
	return func(o *Overlay) { o.clock = c }
}

// Overlay is a network of broker nodes connected by bidirectional links in
// an acyclic topology. Each node runs one actor goroutine; nodes exchange
// subscription and event messages through unbounded mailboxes, and
// content-based routing follows the reverse paths of propagated
// subscriptions.
type Overlay struct {
	covering bool
	clock    simclock.Clock
	reg      *metrics.Registry

	mu     sync.Mutex
	nodes  map[string]*Node
	parent map[string]string // union-find for cycle detection
	closed bool
	wg     sync.WaitGroup

	pending atomic.Int64 // in-flight (enqueued, unprocessed) messages
}

// NewOverlay creates an empty overlay.
func NewOverlay(opts ...OverlayOption) *Overlay {
	o := &Overlay{
		covering: true,
		clock:    simclock.Real{},
		reg:      metrics.NewRegistry(),
		nodes:    make(map[string]*Node),
		parent:   make(map[string]string),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Metrics exposes overlay-wide counters: events_forwarded, subs_forwarded,
// unsubs_forwarded, and the hops histogram.
func (o *Overlay) Metrics() *metrics.Registry { return o.reg }

// CoveringEnabled reports whether covering-based propagation is on.
func (o *Overlay) CoveringEnabled() bool { return o.covering }

// AddNode creates a node. Adding a duplicate name returns the existing
// node and an error.
func (o *Overlay) AddNode(name string) (*Node, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, ErrClosed
	}
	if n, ok := o.nodes[name]; ok {
		return n, fmt.Errorf("pubsub: node %q already exists", name)
	}
	n := &Node{
		name:       name,
		ov:         o,
		broker:     NewBroker(name, o.clock),
		inbox:      newMailbox(),
		links:      make(map[string]*Link),
		remote:     NewIndex(),
		remoteRef:  make(map[string]map[string]*remoteEntry),
		idNeighbor: make(map[int64]string),
		forwarded:  make(map[string]map[string]eventalg.Filter),
		localRef:   make(map[string]*localEntry),
	}
	o.nodes[name] = n
	o.parent[name] = name
	o.wg.Add(1)
	go n.run()
	return n, nil
}

// Node returns the named node.
func (o *Overlay) Node(name string) (*Node, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[name]
	return n, ok
}

// NumNodes returns the number of nodes.
func (o *Overlay) NumNodes() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.nodes)
}

// find is union-find lookup with path compression (caller holds o.mu).
func (o *Overlay) find(x string) string {
	for o.parent[x] != x {
		o.parent[x] = o.parent[o.parent[x]]
		x = o.parent[x]
	}
	return x
}

// Connect links two nodes bidirectionally. It refuses links that would
// close a cycle, keeping the overlay a tree.
func (o *Overlay) Connect(a, b string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	na, ok := o.nodes[a]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, a)
	}
	nb, ok := o.nodes[b]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, b)
	}
	if a == b {
		return fmt.Errorf("pubsub: cannot link %q to itself", a)
	}
	ra, rb := o.find(a), o.find(b)
	if ra == rb {
		return ErrCycle
	}
	o.parent[ra] = rb
	la := &Link{local: na, peer: nb}
	lb := &Link{local: nb, peer: na}
	na.addLink(b, la)
	nb.addLink(a, lb)
	return nil
}

// send enqueues a message into a node's mailbox, tracking it for Quiesce.
func (o *Overlay) send(n *Node, msg nodeMsg) {
	o.pending.Add(1)
	if !n.inbox.put(msg) {
		o.pending.Add(-1)
	}
}

// Quiesce blocks until every enqueued message has been processed, or the
// timeout elapses. Experiments call it between workload phases so that
// measurements see a settled routing state.
func (o *Overlay) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if o.pending.Load() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d messages in flight", ErrQuiesceTimeout, o.pending.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close stops every node actor and closes every broker. Idempotent.
func (o *Overlay) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	nodes := make([]*Node, 0, len(o.nodes))
	for _, n := range o.nodes {
		nodes = append(nodes, n)
	}
	o.mu.Unlock()

	for _, n := range nodes {
		n.inbox.close()
	}
	o.wg.Wait()
	for _, n := range nodes {
		n.broker.Close()
	}
}

// Link is one direction of a broker-to-broker connection, with traffic
// counters for the overlay experiments.
type Link struct {
	local *Node
	peer  *Node

	EventsSent metrics.Counter
	SubsSent   metrics.Counter
	UnsubsSent metrics.Counter
}

// PeerName returns the name of the node this link leads to.
func (l *Link) PeerName() string { return l.peer.name }

// nodeMsg is a message processed by a node's actor goroutine.
type nodeMsg struct {
	kind   msgKind
	from   string // neighbor name; "" for local origin
	event  Event
	hops   int
	filter eventalg.Filter
	done   chan struct{} // for msgSync
	reply  chan int      // for msgTableSize
}

type msgKind int

const (
	msgPublish msgKind = iota + 1
	msgRemoteSub
	msgRemoteUnsub
	msgLocalChange
	msgSync
	msgTableSize
)

// remoteEntry tracks one distinct filter a neighbor has forwarded to us.
type remoteEntry struct {
	indexID int64
	filter  eventalg.Filter
	count   int
}

// localEntry refcounts one distinct local subscription filter.
type localEntry struct {
	filter eventalg.Filter
	count  int
}

// Node is one broker in the overlay. Local clients subscribe and publish
// through it; the node's actor goroutine handles routing.
type Node struct {
	name   string
	ov     *Overlay
	broker *Broker
	inbox  *mailbox

	linkMu sync.RWMutex
	links  map[string]*Link

	// Actor-owned routing state (accessed only from run, except during
	// construction).
	remote     *Index                             // neighbor interests
	remoteRef  map[string]map[string]*remoteEntry // neighbor -> canonical -> entry
	idNeighbor map[int64]string                   // remote index entry -> neighbor
	forwarded  map[string]map[string]eventalg.Filter

	// localRef refcounts distinct local filters (guarded by localMu since
	// Subscribe/Cancel run on client goroutines).
	localMu  sync.Mutex
	localRef map[string]*localEntry
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Broker exposes the node's local broker (for metrics and direct local
// subscriptions in tests).
func (n *Node) Broker() *Broker { return n.broker }

func (n *Node) addLink(peer string, l *Link) {
	n.linkMu.Lock()
	n.links[peer] = l
	n.linkMu.Unlock()
	// Routing state changed: re-derive what should be forwarded.
	n.ov.send(n, nodeMsg{kind: msgLocalChange})
}

// Links returns the node's links keyed by neighbor name.
func (n *Node) Links() map[string]*Link {
	n.linkMu.RLock()
	defer n.linkMu.RUnlock()
	out := make(map[string]*Link, len(n.links))
	for k, v := range n.links {
		out[k] = v
	}
	return out
}

// Subscribe registers a local subscription and propagates it through the
// overlay. The returned subscription's Cancel also withdraws it.
func (n *Node) Subscribe(f eventalg.Filter, opts ...SubOption) (*Subscription, error) {
	sub, err := n.broker.Subscribe(f, opts...)
	if err != nil {
		return nil, err
	}
	key := f.Canonical()
	n.localMu.Lock()
	le, ok := n.localRef[key]
	if !ok {
		le = &localEntry{filter: f}
		n.localRef[key] = le
	}
	le.count++
	n.localMu.Unlock()

	sub.onCancel = func() {
		n.localMu.Lock()
		if le, ok := n.localRef[key]; ok {
			le.count--
			if le.count <= 0 {
				delete(n.localRef, key)
			}
		}
		n.localMu.Unlock()
		n.ov.send(n, nodeMsg{kind: msgLocalChange})
	}
	n.ov.send(n, nodeMsg{kind: msgLocalChange})
	return sub, nil
}

// Publish injects an event at this node and routes it through the overlay.
// Routing is asynchronous: the context gates admission (a canceled context
// refuses the publish) but does not travel with the event.
func (n *Node) Publish(ctx context.Context, ev Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ev.ID == 0 {
		ev.ID = nextEventID()
	}
	if ev.Published.IsZero() {
		ev.Published = n.ov.clock.Now()
	}
	n.ov.mu.Lock()
	closed := n.ov.closed
	n.ov.mu.Unlock()
	if closed {
		return ErrClosed
	}
	n.ov.send(n, nodeMsg{kind: msgPublish, event: ev, from: ""})
	return nil
}

// Sync waits until this node's actor has processed everything enqueued
// before the call.
func (n *Node) Sync() {
	done := make(chan struct{})
	n.ov.send(n, nodeMsg{kind: msgSync, done: done})
	<-done
}

// run is the node's actor loop.
func (n *Node) run() {
	defer n.ov.wg.Done()
	for {
		msg, ok := n.inbox.get()
		if !ok {
			return
		}
		switch msg.kind {
		case msgPublish:
			n.handlePublish(msg)
		case msgRemoteSub:
			n.handleRemoteSub(msg)
		case msgRemoteUnsub:
			n.handleRemoteUnsub(msg)
		case msgLocalChange:
			n.reconcileForwarding()
		case msgSync:
			close(msg.done)
		case msgTableSize:
			msg.reply <- n.remote.Len()
		}
		n.ov.pending.Add(-1)
	}
}

// handlePublish delivers locally and forwards along matching links.
func (n *Node) handlePublish(msg nodeMsg) {
	ev := msg.event
	delivered, _ := n.broker.Publish(context.Background(), ev)
	if delivered > 0 {
		n.ov.reg.Histogram("delivery_hops").Observe(float64(msg.hops))
	}

	// Match neighbor interests and forward once per matching neighbor.
	ids := n.remote.MatchAttrs(ev.Attrs, nil)
	if len(ids) == 0 {
		return
	}
	targets := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if neighbor, ok := n.idNeighbor[id]; ok {
			targets[neighbor] = struct{}{}
		}
	}
	n.linkMu.RLock()
	defer n.linkMu.RUnlock()
	for neighbor := range targets {
		if neighbor == msg.from {
			continue
		}
		l, ok := n.links[neighbor]
		if !ok {
			continue
		}
		l.EventsSent.Inc()
		n.ov.reg.Counter("events_forwarded").Inc()
		n.ov.send(l.peer, nodeMsg{kind: msgPublish, event: ev, from: n.name, hops: msg.hops + 1})
	}
}

// handleRemoteSub records a neighbor's interest and re-derives forwarding.
func (n *Node) handleRemoteSub(msg nodeMsg) {
	key := msg.filter.Canonical()
	byKey := n.remoteRef[msg.from]
	if byKey == nil {
		byKey = make(map[string]*remoteEntry)
		n.remoteRef[msg.from] = byKey
	}
	re, ok := byKey[key]
	if !ok {
		re = &remoteEntry{filter: msg.filter, indexID: n.remote.Add(msg.filter)}
		byKey[key] = re
		n.idNeighbor[re.indexID] = msg.from
	}
	re.count++
	n.reconcileForwarding()
}

// handleRemoteUnsub withdraws a neighbor's interest.
func (n *Node) handleRemoteUnsub(msg nodeMsg) {
	key := msg.filter.Canonical()
	byKey := n.remoteRef[msg.from]
	if byKey == nil {
		return
	}
	re, ok := byKey[key]
	if !ok {
		return
	}
	re.count--
	if re.count <= 0 {
		n.remote.Remove(re.indexID)
		delete(n.idNeighbor, re.indexID)
		delete(byKey, key)
		if len(byKey) == 0 {
			delete(n.remoteRef, msg.from)
		}
	}
	n.reconcileForwarding()
}

// interestSet collects the distinct filters this node must express toward
// neighbor `exclude`: local subscriptions plus interests from every other
// neighbor.
func (n *Node) interestSet(exclude string) map[string]eventalg.Filter {
	out := make(map[string]eventalg.Filter)
	n.localMu.Lock()
	for key, le := range n.localRef {
		out[key] = le.filter
	}
	n.localMu.Unlock()
	for neighbor, byKey := range n.remoteRef {
		if neighbor == exclude {
			continue
		}
		for key, re := range byKey {
			out[key] = re.filter
		}
	}
	return out
}

// reduceByCovering keeps only maximal filters: any filter covered by
// another in the set is dropped. Ties (mutually covering filters) keep the
// lexicographically smallest canonical form.
func reduceByCovering(set map[string]eventalg.Filter) map[string]eventalg.Filter {
	out := make(map[string]eventalg.Filter, len(set))
	for k, f := range set {
		covered := false
		for k2, g := range set {
			if k == k2 {
				continue
			}
			if g.Covers(f) {
				if f.Covers(g) && k < k2 {
					continue // mutual: keep the smaller key
				}
				covered = true
				break
			}
		}
		if !covered {
			out[k] = f
		}
	}
	return out
}

// reconcileForwarding re-derives, for every neighbor, the set of filters
// that should be forwarded there, and sends the subscribe/unsubscribe
// deltas.
func (n *Node) reconcileForwarding() {
	n.linkMu.RLock()
	neighbors := make(map[string]*Link, len(n.links))
	for name, l := range n.links {
		neighbors[name] = l
	}
	n.linkMu.RUnlock()

	for name, l := range neighbors {
		desired := n.interestSet(name)
		if n.ov.covering {
			desired = reduceByCovering(desired)
		}
		current := n.forwarded[name]
		if current == nil {
			current = make(map[string]eventalg.Filter)
			n.forwarded[name] = current
		}
		for key, f := range desired {
			if _, ok := current[key]; !ok {
				current[key] = f
				l.SubsSent.Inc()
				n.ov.reg.Counter("subs_forwarded").Inc()
				n.ov.send(l.peer, nodeMsg{kind: msgRemoteSub, from: n.name, filter: f})
			}
		}
		for key, f := range current {
			if _, ok := desired[key]; !ok {
				delete(current, key)
				l.UnsubsSent.Inc()
				n.ov.reg.Counter("unsubs_forwarded").Inc()
				n.ov.send(l.peer, nodeMsg{kind: msgRemoteUnsub, from: n.name, filter: f})
			}
		}
	}
}

// RoutingTableSize reports how many distinct remote filters this node
// holds, for the covering ablation (A2). The query runs on the actor
// goroutine, so it is safe against concurrent routing updates.
func (n *Node) RoutingTableSize() int {
	reply := make(chan int, 1)
	n.ov.send(n, nodeMsg{kind: msgTableSize, reply: reply})
	select {
	case v := <-reply:
		return v
	case <-time.After(5 * time.Second):
		return -1
	}
}
