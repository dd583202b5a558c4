// Package reefcluster scales reef out: a Cluster implements
// reef.Deployment by routing over N reefd nodes, so capacity is no
// longer capped by one machine. It is the multi-node analog of the
// in-process shard router (reef.WithShards):
//
//   - Each node owns a static slice of the user hash space — the same
//     FNV-1a scheme the shard router uses, applied at node granularity
//     over the configured node list. User-addressed calls (clicks,
//     subscriptions, recommendations) forward to the owning node
//     through the reef client SDK.
//   - PublishEvent/PublishBatch stamp the events once and fan out to
//     every routable node concurrently, mirroring the in-process
//     fan-out; the result sums the nodes' local delivery counts.
//   - Every forward goes through one reef client SDK per node. Nodes
//     configured with a StreamAddr carry publishes, clicks, fetches and
//     acks over a persistent binary stream (reefstream) plugged in as
//     the client's transport, usually dialed at the node's base URL;
//     REST remains the control plane. A stream call's answer is the
//     call's answer, never repeated over REST, and forwardErr decides
//     whether its failure demotes the node.
//   - Stats and StorageInfo aggregate across nodes with per-node
//     breakdowns.
//
// Membership is a static seed list plus liveness: a background prober
// (internal/membership) walks every node's /v1/healthz and /v1/readyz
// on a jittered interval and keeps a per-node up/draining/down state.
// The headline behavior is failover. With Config.Replicas == 0, when a
// node dies mid-workload calls for its users fail fast with ErrNodeDown
// while every other user keeps being served; when the node restarts it
// recovers from its own WAL and the prober re-admits it — no operator
// action, no rebalancing. With Replicas == k > 0 the nodes ship each
// user's WAL records to the next k nodes in list order
// (internal/replication), and the router walks that same replica set:
// a dead primary's users are served by the first up replica within one
// probe interval, and fail back automatically on re-admission.
// Placement is intentionally static (node list order is the contract):
// moving users between nodes is a data migration, not a failover.
// A node's shard count, by contrast, is an in-memory partition over one
// journal and may change at any restart.
package reefcluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"reef"
	"reef/internal/membership"
	"reef/internal/metrics"
	"reef/internal/routing"
	"reef/reefclient"
	"reef/reefhttp"
	"reef/reefstream"
)

// ErrNodeDown is the typed failover error: the node owning the
// addressed user is not routable (dead, still recovering its WAL, or
// draining for shutdown). Calls for users on other nodes are
// unaffected. NodeDownError instances match it with errors.Is; they
// also match reef.ErrClosed, so the REST surface maps a routed-through
// node failure to the same 503 envelope a closed deployment gets.
var ErrNodeDown = errors.New("reefcluster: node down")

// NodeDownError reports which node was unroutable and why.
type NodeDownError struct {
	// Node is the owning node's ID ("any" for cluster-wide failures
	// such as a publish finding no routable node at all).
	Node string
	// State is the membership verdict: "down" or "draining".
	State string
	// Err is the underlying transport error when one triggered the
	// verdict mid-call, nil when the prober had already marked the node.
	Err error
}

// Error implements error.
func (e *NodeDownError) Error() string {
	msg := fmt.Sprintf("reefcluster: node %s is %s", e.Node, e.State)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Is makes errors.Is(err, ErrNodeDown) and errors.Is(err,
// reef.ErrClosed) both true, keeping sentinel checks working through
// the REST surface while the specific check stays available.
func (e *NodeDownError) Is(target error) bool {
	return target == ErrNodeDown || target == reef.ErrClosed
}

// Unwrap exposes the transport error, when there is one.
func (e *NodeDownError) Unwrap() error { return e.Err }

// Node is one cluster member. ID must match the node's reefd -node-id
// (the prober cross-checks it, catching a probe answered by a stranger
// on a reused address); BaseURL is the node's API root.
type Node struct {
	ID      string
	BaseURL string

	// StreamAddr is a base URL (usually BaseURL) or a reefstream Listen
	// address. When set, the router carries this node's publishes,
	// clicks, fetches and acks over one long-lived reefstream connection
	// instead of REST; empty keeps that node on REST for library users.
	// Control-plane calls always use BaseURL either way.
	StreamAddr string
}

// Config describes the cluster. Nodes is the placement contract: a
// user's owner is Nodes[fnv1a(user) % len(Nodes)], so the list's order
// and length must be identical on every router and across restarts —
// changing either re-homes users whose data stays on the old owner.
type Config struct {
	Nodes []Node

	// Replicas is k in the replicated placement: each user's records
	// live on a primary (the FNV-1a slot) plus the next k nodes in list
	// order, kept in sync by WAL shipping (internal/replication) on the
	// nodes themselves. The router walks that same replica set when the
	// primary is down: user calls are served by the first Up member —
	// failover promotion — and return to the primary as soon as the
	// prober re-admits it (static preference order means automatic
	// fail-back). 0 keeps the single-copy layout: down primary → fail
	// fast. Must match the -replicas the nodes run with, and must be
	// < len(Nodes).
	Replicas int

	// ProbeInterval is the base membership probe period per node
	// (default 1s); ProbeTimeout bounds one probe (default interval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// CallTimeout bounds each forwarded request attempt (default 10s).
	CallTimeout time.Duration
	// Retries is how many extra attempts a forwarded call gets on
	// connection errors and 502/503 answers (jittered backoff between
	// them, see reefclient.WithRetry). Default 1; negative disables.
	Retries int
	// RetryBackoff is the first backoff delay (default 25ms).
	RetryBackoff time.Duration

	// HTTPClient overrides the transport for every node client (tests).
	HTTPClient *http.Client

	// Metrics is the registry the router's stream clients record publish
	// ack round trips into. The router reefd passes its REST handler's
	// registry so one /v1/metrics scrape covers the publish leg; nil uses
	// a private registry. The routing-health counters are the router's
	// own samples, served beside the registry either way.
	Metrics *metrics.Registry

	// Logger receives the router's structured events — node demotions
	// above all. Nil discards them.
	Logger *slog.Logger
}

// Cluster routes a reef.Deployment over N reefd nodes.
type Cluster struct {
	nodes    []Node
	replicas int
	clients  []*reefclient.Client // forwarding clients, with retry and the node's stream as transport
	tracker  *membership.Tracker
	metrics  *metrics.Registry
	logger   *slog.Logger

	mu     sync.Mutex
	closed bool

	// Routing-health counters, reported by Samples.
	forwardErrors  metrics.Counter // transport failures on forwarded calls
	publishSkips   metrics.Counter // node publishes skipped or lost to node failures
	publishPartial metrics.Counter // publishes that landed on fewer than all configured nodes
}

var (
	_ reef.Deployment        = (*Cluster)(nil)
	_ reef.Persister         = (*Cluster)(nil)
	_ reef.ReliableDeliverer = (*Cluster)(nil)
)

// New builds the cluster router and runs one synchronous probe round so
// the first routing decision sees real node states, then starts the
// background prober. Nodes that are down merely start as Down — their
// users fail fast until the prober re-admits them; New itself succeeds
// as long as the configuration is valid.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%w: cluster needs at least one node", reef.ErrInvalidArgument)
	}
	seen := make(map[string]struct{}, len(cfg.Nodes))
	seenURL := make(map[string]string, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.ID == "" || n.BaseURL == "" {
			return nil, fmt.Errorf("%w: node needs both an ID and a base URL (got %+v)", reef.ErrInvalidArgument, n)
		}
		if _, dup := seen[n.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate node ID %q", reef.ErrInvalidArgument, n.ID)
		}
		seen[n.ID] = struct{}{}
		// Two IDs sharing one URL would silently route two users' worth
		// of placement to one deployment — refuse it up front.
		if prev, dup := seenURL[n.BaseURL]; dup {
			return nil, fmt.Errorf("%w: nodes %q and %q share base URL %q", reef.ErrInvalidArgument, prev, n.ID, n.BaseURL)
		}
		seenURL[n.BaseURL] = n.ID
		if n.StreamAddr != "" {
			if prev, dup := seenURL["stream:"+n.StreamAddr]; dup {
				return nil, fmt.Errorf("%w: nodes %q and %q share stream address %q", reef.ErrInvalidArgument, prev, n.ID, n.StreamAddr)
			}
			seenURL["stream:"+n.StreamAddr] = n.ID
		}
	}
	if cfg.Replicas < 0 || cfg.Replicas >= len(cfg.Nodes) {
		return nil, fmt.Errorf("%w: replicas %d out of range for %d nodes (need 0 <= k < nodes)",
			reef.ErrInvalidArgument, cfg.Replicas, len(cfg.Nodes))
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}

	c := &Cluster{nodes: cfg.Nodes, replicas: cfg.Replicas, metrics: cfg.Metrics, logger: cfg.Logger}
	if c.metrics == nil {
		c.metrics = metrics.NewRegistry()
	}
	if c.logger == nil {
		c.logger = slog.New(slog.DiscardHandler)
	}
	clientOpts := func(extra ...reefclient.Option) []reefclient.Option {
		opts := []reefclient.Option{reefclient.WithTimeout(cfg.CallTimeout)}
		if cfg.HTTPClient != nil {
			opts = append(opts, reefclient.WithHTTPClient(cfg.HTTPClient))
		}
		return append(opts, extra...)
	}
	c.clients = make([]*reefclient.Client, len(cfg.Nodes))
	probeClients := make([]*reefclient.Client, len(cfg.Nodes))
	mnodes := make([]membership.Node, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		var fwd []reefclient.Option
		if cfg.Retries > 0 {
			fwd = append(fwd, reefclient.WithRetry(cfg.Retries, cfg.RetryBackoff))
		}
		if n.StreamAddr != "" {
			// The stream client verifies the node's handshake identity,
			// the same guard the prober applies to /healthz — a reused
			// port cannot siphon another node's publishes.
			fwd = append(fwd, reefclient.WithTransport(reefstream.NewClient(n.StreamAddr,
				reefstream.WithExpectNode(n.ID),
				reefstream.WithCallTimeout(cfg.CallTimeout),
				reefstream.WithClientMetrics(c.metrics))))
		}
		c.clients[i] = reefclient.New(n.BaseURL, clientOpts(fwd...)...)
		// Probes never retry: a probe wants this instant's answer, and a
		// retried 503 would stretch every round by the backoff.
		probeClients[i] = reefclient.New(n.BaseURL, clientOpts()...)
		mnodes[i] = membership.Node{ID: n.ID, BaseURL: n.BaseURL}
	}
	byID := make(map[string]*reefclient.Client, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		byID[n.ID] = probeClients[i]
	}
	probe := func(ctx context.Context, n membership.Node) membership.State {
		return probeNode(ctx, byID[n.ID], n.ID)
	}
	c.tracker = membership.New(mnodes, probe, membership.Options{
		Interval: cfg.ProbeInterval,
		Timeout:  cfg.ProbeTimeout,
	})
	initCtx, cancel := context.WithTimeout(context.Background(), cfg.ProbeTimeout)
	c.tracker.ProbeAll(initCtx)
	cancel()
	c.tracker.Start()
	return c, nil
}

// probeNode is the cluster's membership probe: healthz answers "is a
// live reef node at this address" (including identity, when stamped),
// readyz answers "should it receive new work".
func probeNode(ctx context.Context, cli *reefclient.Client, wantID string) membership.State {
	h, err := cli.Health(ctx)
	if err != nil {
		return membership.Down
	}
	if h.Node != "" && h.Node != wantID {
		// A healthy answer from the wrong process: the address was reused.
		// Routing user data there would corrupt two deployments at once.
		return membership.Down
	}
	ready, err := cli.Ready(ctx)
	switch {
	case err == nil:
		return membership.Up
	case ready.Status == reefhttp.ReadyDraining:
		return membership.Draining
	default:
		// Starting (recovery replay), or an unreadable answer.
		return membership.Down
	}
}

// NodeFor reports which node is a user's primary: the shard router's
// FNV-1a placement hash (internal/routing) at node granularity.
// Exposed so tests, benches and operators can check placement against
// the hash. With replicas configured the primary is the preferred
// owner, not necessarily the serving one — see ReplicaSetFor.
func (c *Cluster) NodeFor(user string) Node {
	return c.nodes[routing.UserSlot(user, len(c.nodes))]
}

// ReplicaSetFor reports a user's full replica set in preference order:
// primary first, then the k replicas. User calls are served by the
// first Up member.
func (c *Cluster) ReplicaSetFor(user string) []Node {
	slots := routing.ReplicaSet(user, len(c.nodes), c.replicas)
	out := make([]Node, len(slots))
	for i, s := range slots {
		out[i] = c.nodes[s]
	}
	return out
}

// Nodes returns the static node list in placement order.
func (c *Cluster) Nodes() []Node { return c.nodes }

// Replicas returns k, the configured replicas per user.
func (c *Cluster) Replicas() int { return c.replicas }

// NodeStatus is one node's tracked membership state.
type NodeStatus struct {
	Node Node
	// State is "up", "draining" or "down".
	State string
	// LastProbe is when the state was last confirmed.
	LastProbe time.Time
}

// Status reports every node's membership state, in placement order.
func (c *Cluster) Status() []NodeStatus {
	snap := c.tracker.Snapshot()
	out := make([]NodeStatus, len(snap))
	for i, s := range snap {
		out[i] = NodeStatus{
			Node:      Node{ID: s.Node.ID, BaseURL: s.Node.BaseURL},
			State:     s.State.String(),
			LastProbe: s.LastProbe,
		}
	}
	return out
}

// ProbeNow runs one synchronous probe round over every node — tests
// and operators use it to refresh membership without waiting out the
// probe interval.
func (c *Cluster) ProbeNow(ctx context.Context) { c.tracker.ProbeAll(ctx) }

// checkOpen rejects calls on a closed cluster or a dead context.
func (c *Cluster) checkOpen(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return reef.ErrClosed
	}
	return nil
}

// owner resolves the node serving a user: the first Up member of the
// user's replica set, in preference order. With the primary Up that is
// the primary (same answer as the k=0 layout); with it Down the first
// up replica is promoted, and because the walk order is static the
// primary takes back over the moment the prober re-admits it. Only
// when the whole set is unroutable does the call fail fast, reporting
// the primary's identity and state.
func (c *Cluster) owner(user string) (int, error) {
	slots := routing.ReplicaSet(user, len(c.nodes), c.replicas)
	for _, s := range slots {
		if c.tracker.State(c.nodes[s].ID) == membership.Up {
			return s, nil
		}
	}
	id := c.nodes[slots[0]].ID
	return 0, &NodeDownError{Node: id, State: c.tracker.State(id).String()}
}

// nodeFault reports whether a forwarded call's failure indicts the
// node rather than the request: transport errors (the node, or the
// path to it, is gone) and 5xx answers — a 503 deployment that closed
// or started draining between probe rounds, a 502/504 from a proxy
// whose backend died, a 500. 501 is the one 5xx that is deterministic
// (reef.ErrUnsupported: every retry and every node answers the same),
// and every 4xx is the request's own fault. So is a call whose caller
// gave up: once the caller's ctx is cancelled or past its deadline the
// error says nothing about the node. The test is the caller's context,
// not errors.Is(err, context.DeadlineExceeded): the router's own
// CallTimeout wraps the same sentinel and must keep indicting the node,
// and a node that stalls past a caller's deadline is the prober's to
// find.
func nodeFault(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var se *reefstream.StatusError
	if errors.As(err, &se) {
		// A stream ack is the node's own verdict: invalid_argument and
		// not_found are the request's fault (deterministic on every
		// node) and unsupported is a capability answer (the 501
		// analogue); everything else — unavailable (draining/closed),
		// internal — indicts the node, mirroring the 5xx rule below.
		return se.Status != reefstream.StatusInvalidArgument &&
			se.Status != reefstream.StatusNotFound &&
			se.Status != reefstream.StatusUnsupported
	}
	var apiErr *reefclient.APIError
	if !errors.As(err, &apiErr) {
		return true
	}
	return apiErr.StatusCode >= 500 && apiErr.StatusCode != http.StatusNotImplemented
}

// forwardErr post-processes a forwarded call's error. Node faults (see
// nodeFault) demote the node to Down immediately — the prober
// re-admits it when it comes back — and wrap in the typed failover
// error. Every other error — an API error, or whatever a call returned
// after its caller's ctx ended — passes through untouched, so sentinel
// mapping keeps working end to end.
func (c *Cluster) forwardErr(ctx context.Context, i int, err error) error {
	if err == nil {
		return nil
	}
	if !nodeFault(ctx, err) {
		return err
	}
	c.forwardErrors.Add(1)
	c.logger.Warn("node demoted on forward failure",
		"node", c.nodes[i].ID, "err", err)
	c.tracker.Report(c.nodes[i].ID, membership.Down)
	return &NodeDownError{Node: c.nodes[i].ID, State: membership.Down.String(), Err: err}
}

// --- user-addressed calls: forward to the owning node ------------------

// IngestClicks implements reef.Deployment: the batch is validated as a
// whole, split by owning node, and the per-node groups forward
// concurrently. A batch that includes users of an already-down node
// fails fast with ErrNodeDown before anything is sent; a node that
// dies MID-call, however, can leave the batch partially landed — the
// other groups' clicks are already on their nodes (there is no
// cross-node transaction to roll them back with). The returned count
// is what actually landed, also alongside an error, so a caller
// retrying a failed batch knows it may duplicate clicks on the
// surviving groups; callers that need exactly-once should batch
// per user. A group rides its node's stream where it has one, and is
// never repeated once its frame was queued.
func (c *Cluster) IngestClicks(ctx context.Context, clicks []reef.Click) (int, error) {
	if err := c.checkOpen(ctx); err != nil {
		return 0, err
	}
	for _, cl := range clicks {
		if strings.TrimSpace(cl.User) == "" {
			return 0, fmt.Errorf("%w: click with empty user", reef.ErrInvalidArgument)
		}
		if cl.URL == "" {
			return 0, fmt.Errorf("%w: click with empty URL", reef.ErrInvalidArgument)
		}
	}
	if len(clicks) == 0 {
		return 0, nil
	}
	groups := make(map[int][]reef.Click)
	for _, cl := range clicks {
		i, err := c.owner(cl.User)
		if err != nil {
			return 0, err
		}
		groups[i] = append(groups[i], cl)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		first error
	)
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g []reef.Click) {
			defer wg.Done()
			n, err := c.clients[i].IngestClicks(ctx, g)
			mu.Lock()
			defer mu.Unlock()
			total += n
			if err != nil && first == nil {
				first = c.forwardErr(ctx, i, err)
			}
		}(i, g)
	}
	wg.Wait()
	return total, first
}

// Subscriptions implements reef.Deployment by forwarding to the owner.
func (c *Cluster) Subscriptions(ctx context.Context, user string) ([]reef.Subscription, error) {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return nil, err
	}
	subs, err := c.clients[i].Subscriptions(ctx, user)
	return subs, c.forwardErr(ctx, i, err)
}

// Subscribe implements reef.Deployment by forwarding to the owner;
// delivery options ride along so a reliable subscription's cursor lives
// on the node that owns the user.
func (c *Cluster) Subscribe(ctx context.Context, user, feedURL string, opts ...reef.SubscribeOption) (reef.Subscription, error) {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return reef.Subscription{}, err
	}
	sub, err := c.clients[i].Subscribe(ctx, user, feedURL, opts...)
	return sub, c.forwardErr(ctx, i, err)
}

// FetchEvents implements reef.ReliableDeliverer by forwarding to the
// node owning the user — the cursor and retained window live there.
// When the owner has a stream, the fetch rides it (server-pushed, no
// polling); ownership is resolved per call, so after a failover the
// consumer session re-attaches on the promoted replica's stream, and
// when the primary is re-admitted it snaps back the same way. The
// unacked window straddling the switch redelivers under its lease.
func (c *Cluster) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return nil, err
	}
	evs, err := c.clients[i].FetchEvents(ctx, user, subID, max)
	return evs, c.forwardErr(ctx, i, err)
}

// Ack implements reef.ReliableDeliverer by forwarding to the owner,
// over its stream when it has one. Acks are cumulative and idempotent,
// so the forwarding retry policy is safe here too.
func (c *Cluster) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return err
	}
	return c.forwardErr(ctx, i, c.clients[i].Ack(ctx, user, subID, seq, nack))
}

// DeadLetters implements reef.ReliableDeliverer by forwarding to the
// owner.
func (c *Cluster) DeadLetters(ctx context.Context, user, subID string) ([]reef.DeadLetter, error) {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return nil, err
	}
	dls, err := c.clients[i].DeadLetters(ctx, user, subID)
	return dls, c.forwardErr(ctx, i, err)
}

// DrainDeadLetters implements reef.ReliableDeliverer by forwarding to
// the owner.
func (c *Cluster) DrainDeadLetters(ctx context.Context, user, subID string) ([]reef.DeadLetter, error) {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return nil, err
	}
	dls, err := c.clients[i].DrainDeadLetters(ctx, user, subID)
	return dls, c.forwardErr(ctx, i, err)
}

// Unsubscribe implements reef.Deployment by forwarding to the owner.
func (c *Cluster) Unsubscribe(ctx context.Context, user, feedURL string) error {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return err
	}
	return c.forwardErr(ctx, i, c.clients[i].Unsubscribe(ctx, user, feedURL))
}

// Recommendations implements reef.Deployment by forwarding to the owner.
func (c *Cluster) Recommendations(ctx context.Context, user string) ([]reef.Recommendation, error) {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return nil, err
	}
	recs, err := c.clients[i].Recommendations(ctx, user)
	return recs, c.forwardErr(ctx, i, err)
}

// AcceptRecommendation implements reef.Deployment by forwarding to the
// owner.
func (c *Cluster) AcceptRecommendation(ctx context.Context, user, id string) error {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return err
	}
	return c.forwardErr(ctx, i, c.clients[i].AcceptRecommendation(ctx, user, id))
}

// RejectRecommendation implements reef.Deployment by forwarding to the
// owner.
func (c *Cluster) RejectRecommendation(ctx context.Context, user, id string) error {
	i, err := c.userCall(ctx, user)
	if err != nil {
		return err
	}
	return c.forwardErr(ctx, i, c.clients[i].RejectRecommendation(ctx, user, id))
}

// userCall is the shared preamble of every forwarded user call.
func (c *Cluster) userCall(ctx context.Context, user string) (int, error) {
	if err := c.checkOpen(ctx); err != nil {
		return 0, err
	}
	if strings.TrimSpace(user) == "" {
		return 0, fmt.Errorf("%w: empty user", reef.ErrInvalidArgument)
	}
	return c.owner(user)
}

// --- publishes: stamp once, fan out to every routable node -------------

// PublishEvent implements reef.Deployment: the event is stamped once
// (all nodes record the same publish time) and fanned out to every Up
// node concurrently; the result sums their local delivery counts.
// Nodes that fail at the transport mid-fan-out are demoted and their
// deliveries skipped — publish keeps the cluster's remaining users
// served, which is the failover contract. Only when no node accepts
// the event does the call fail.
func (c *Cluster) PublishEvent(ctx context.Context, ev reef.Event) (int, error) {
	if err := c.checkOpen(ctx); err != nil {
		return 0, err
	}
	if ev.Published.IsZero() {
		ev.Published = time.Now().UTC()
	}
	return c.fanOutPublish(ctx, []reef.Event{ev})
}

// PublishBatch implements reef.Deployment: the batch is stamped once
// and fanned out whole to every Up node (one round trip per node for
// the entire batch, on the stream plane where the node has one).
func (c *Cluster) PublishBatch(ctx context.Context, evs []reef.Event) (int, error) {
	if err := c.checkOpen(ctx); err != nil {
		return 0, err
	}
	if len(evs) == 0 {
		return 0, nil
	}
	now := time.Now().UTC()
	stamped := make([]reef.Event, len(evs))
	copy(stamped, evs)
	for i := range stamped {
		if stamped[i].Published.IsZero() {
			stamped[i].Published = now
		}
	}
	return c.fanOutPublish(ctx, stamped)
}

// fanOutPublish ships stamped events to every Up node through its
// forwarding client: over the node's stream where it has one, and over
// REST otherwise.
func (c *Cluster) fanOutPublish(ctx context.Context, evs []reef.Event) (int, error) {
	return c.fanOut(ctx, func(i int) (int, error) {
		return c.clients[i].PublishBatch(ctx, evs)
	})
}

// fanOut runs a publish against every Up node concurrently and sums
// the delivery counts. API errors (validation) propagate — they are
// deterministic and identical on every node; transport errors demote
// the node and are skipped. With zero routable nodes, or when every
// routable node failed mid-call, the publish fails with ErrNodeDown.
//
// Skip accounting is explicit, because a skipped node is silent data
// loss for that node's subscribers: every skipped or failed node bumps
// cluster_publish_skips (one per node per publish), and a publish that
// succeeds without reaching every configured node additionally bumps
// cluster_publish_partial (one per publish). A caller that must not
// lose audience on a down node watches those gauges; the call itself
// stays successful on the survivors — that is the failover contract.
func (c *Cluster) fanOut(ctx context.Context, fn func(i int) (int, error)) (int, error) {
	var targets []int
	for i, n := range c.nodes {
		if c.tracker.State(n.ID) == membership.Up {
			targets = append(targets, i)
		} else {
			c.publishSkips.Add(1)
		}
	}
	if len(targets) == 0 {
		return 0, &NodeDownError{Node: "any", State: membership.Down.String()}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int
		landed   int
		firstAPI error
	)
	for _, i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := fn(i)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if !nodeFault(ctx, err) {
					// Deterministic (validation) failure, identical on every
					// node, or the caller gave up: the publish's answer, not a
					// node's.
					if firstAPI == nil {
						firstAPI = err
					}
					return
				}
				c.publishSkips.Add(1)
				_ = c.forwardErr(ctx, i, err) // demote; publish itself continues
				return
			}
			landed++
			total += n
		}(i)
	}
	wg.Wait()
	if firstAPI != nil {
		return 0, firstAPI
	}
	if landed == 0 {
		return 0, &NodeDownError{Node: "any", State: membership.Down.String()}
	}
	if landed < len(c.nodes) {
		c.publishPartial.Add(1)
	}
	return total, nil
}

// --- aggregation -------------------------------------------------------

// Samples reports the cluster's series. Each Up node's totals are
// read from its flat stats by exact key and merge by their families'
// rules (sums; the replication lag takes the maximum). Each node adds
// its clicks stored, users with frontends, pending recommendations and
// shard count under a node label, and the router adds its own: nodes,
// nodes_up/draining/down, cluster_forward_errors, cluster_publish_skips
// and cluster_publish_partial. A node's shard breakdown stays on the
// node's own scrape. Down nodes are skipped: their counters are
// unreachable by definition.
func (c *Cluster) Samples(ctx context.Context) ([]metrics.Sample, error) {
	if err := c.checkOpen(ctx); err != nil {
		return nil, err
	}
	states := map[string]float64{"up": 0, "draining": 0, "down": 0}
	for _, s := range c.Status() {
		states[s.State]++
	}
	per := make([][]metrics.Sample, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		if c.tracker.State(n.ID) != membership.Up {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.clients[i].Stats(ctx)
			if err != nil {
				_ = c.forwardErr(ctx, i, err)
				return
			}
			per[i] = metrics.Decode(st)
		}(i)
	}
	wg.Wait()
	out := metrics.Combine(per...)
	for i, ss := range per {
		for _, s := range ss {
			switch s.Def {
			case metrics.ClicksStored, metrics.UsersWithFrontends, metrics.PendingRecommendations, metrics.Shards:
				out = append(out, metrics.Sample{Def: s.Def, Label: metrics.Node(c.nodes[i].ID), Value: s.Value})
			}
		}
	}
	return append(out,
		metrics.Sample{Def: metrics.ClusterNodes, Value: float64(len(c.nodes))},
		metrics.Sample{Def: metrics.ClusterNodesUp, Value: states["up"]},
		metrics.Sample{Def: metrics.ClusterNodesDraining, Value: states["draining"]},
		metrics.Sample{Def: metrics.ClusterNodesDown, Value: states["down"]},
		metrics.Sample{Def: metrics.ClusterForwardErrors, Value: float64(c.forwardErrors.Value())},
		metrics.Sample{Def: metrics.ClusterPublishSkips, Value: float64(c.publishSkips.Value())},
		metrics.Sample{Def: metrics.ClusterPublishPartial, Value: float64(c.publishPartial.Value())},
	), nil
}

// Stats implements reef.Deployment: the flat view of Samples.
func (c *Cluster) Stats(ctx context.Context) (reef.Stats, error) {
	samples, err := c.Samples(ctx)
	if err != nil {
		return nil, err
	}
	return metrics.Flat(samples), nil
}

// StorageInfo implements reef.Persister: the per-node backend states
// merge under Backend "cluster", with each node's own StorageInfo in
// the Shards breakdown labeled by Node. Unreachable nodes contribute a
// stub entry with Backend "unreachable" instead of failing the whole
// report — an operator asking "how is the cluster's storage" mid-outage
// deserves an answer, not an error.
func (c *Cluster) StorageInfo(ctx context.Context) (reef.StorageInfo, error) {
	if err := c.checkOpen(ctx); err != nil {
		return reef.StorageInfo{}, err
	}
	infos := make([]reef.StorageInfo, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		if c.tracker.State(n.ID) == membership.Down {
			infos[i] = reef.StorageInfo{Node: n.ID, Backend: "unreachable"}
			continue
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			info, err := c.clients[i].StorageInfo(ctx)
			if err != nil {
				if errors.Is(err, reef.ErrUnsupported) {
					infos[i] = reef.StorageInfo{Node: id, Backend: "memory"}
				} else {
					_ = c.forwardErr(ctx, i, err)
					infos[i] = reef.StorageInfo{Node: id, Backend: "unreachable"}
				}
				return
			}
			info.Node = id
			infos[i] = info
		}(i, n.ID)
	}
	wg.Wait()
	agg := reef.StorageInfo{Backend: "cluster", Shards: infos}
	for _, in := range infos {
		agg.WALRecords += in.WALRecords
		agg.WALBytes += in.WALBytes
		agg.Snapshots += in.Snapshots
		agg.Syncs += in.Syncs
		agg.RecoveredRecords += in.RecoveredRecords
		agg.ShardCount += in.ShardCount
		if in.Generation > agg.Generation {
			agg.Generation = in.Generation
		}
		if in.TornTail {
			agg.TornTail = true
		}
		if in.LastSnapshot.After(agg.LastSnapshot) {
			agg.LastSnapshot = in.LastSnapshot
		}
	}
	return agg, nil
}

// Snapshot implements reef.Persister: every Up node takes a compacting
// snapshot concurrently; the first failure aborts with that node's
// error. It returns the post-compaction aggregate.
func (c *Cluster) Snapshot(ctx context.Context) (reef.StorageInfo, error) {
	if err := c.checkOpen(ctx); err != nil {
		return reef.StorageInfo{}, err
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for i, n := range c.nodes {
		if c.tracker.State(n.ID) != membership.Up {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.clients[i].Snapshot(ctx); err != nil {
				mu.Lock()
				if first == nil {
					first = c.forwardErr(ctx, i, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if first != nil {
		return reef.StorageInfo{}, first
	}
	return c.StorageInfo(ctx)
}

// Close implements reef.Deployment: it stops the prober, closes the
// forwarding clients (and with them their node streams) and marks the
// router closed. The nodes themselves keep running — the cluster
// router is a view over them, not their owner. Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.tracker.Close()
	for _, cli := range c.clients {
		_ = cli.Close()
	}
	return nil
}
