package reef

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"reef/internal/core"
	"reef/internal/durable"
	"reef/internal/frontend"
	"reef/internal/metrics"
	"reef/internal/recommend"
)

// Distributed is the public face of the paper's Figure 2 deployment: one
// Reef peer per user runs the whole pipeline over the local browser cache
// — attention data never leaves the host — and peers with similar
// interest profiles form communities that exchange feed recommendations.
// The adapter hosts a set of peers and drives them through the same
// Deployment interface as the centralized server.
//
// It is the same sharded engine as Centralized with a peer click policy:
// each shard analyzes its users' clicks on their own core.Peer. Community
// exchange still spans every peer on the host — interest similarity does
// not respect hash boundaries. Reliable delivery stays with Centralized:
// the paper's peers have no server-side retention.
type Distributed struct {
	*router
}

var (
	_ Deployment          = (*Distributed)(nil)
	_ Persister           = (*Distributed)(nil)
	_ Sharder             = (*Distributed)(nil)
	_ BatchCountPublisher = (*Distributed)(nil)
)

// NewDistributed builds the distributed deployment. WithFetcher is
// required: it stands in for each peer's browser cache. By default
// locally generated recommendations queue for AcceptRecommendation;
// WithAutoApply(true) restores the paper's zero-click behavior.
//
// With WithDataDir the subscription tables and pending-recommendation
// ledgers of every shard persist in the node's one journal and recover;
// raw attention data deliberately does not — in the
// distributed deployment clicks never leave the user's host (paper §4),
// so the durable footprint holds only what the user chose to act on (or
// let the peer act on), and profile state rebuilds from future browsing.
func NewDistributed(opts ...Option) (*Distributed, error) {
	cfg := buildConfig(opts)
	if cfg.fetcher == nil {
		return nil, fmt.Errorf("%w: NewDistributed requires WithFetcher", ErrInvalidArgument)
	}
	r, err := openRouter(cfg, newPeerPolicy)
	if err != nil {
		return nil, err
	}
	return &Distributed{r}, nil
}

// peerPolicy is the Figure 2 click policy: each user's clicks are
// analyzed on the user's own core.Peer against the cached page. The
// peers never apply a recommendation themselves; what they generate goes
// to the engine, applied under its journal (auto mode) or queued in its
// pending ledger.
type peerPolicy struct {
	cfg config

	mu       sync.Mutex
	peers    map[string]*core.Peer
	nApplied map[string]int
}

func newPeerPolicy(cfg config, _ *durable.Journal) clickPolicy {
	return &peerPolicy{cfg: cfg, peers: make(map[string]*core.Peer), nApplied: make(map[string]int)}
}

// peersOf returns a distributed shard's click policy.
func peersOf(e *engine) *peerPolicy { return e.policy.(*peerPolicy) }

// ingest analyzes each click on the user's peer against the locally
// cached page — no click upload, no crawl traffic. Clicks whose page is
// not in the cache are skipped; the count is the number analyzed.
func (pp *peerPolicy) ingest(ctx context.Context, e *engine, clicks []Click) (int, error) {
	n := 0
	for _, cl := range clicks {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		res, err := pp.cfg.fetcher.Fetch(cl.URL)
		if err != nil {
			continue // not in the browser cache: nothing to analyze
		}
		if _, err := e.front(cl.User); err != nil {
			return n, err
		}
		p, _ := pp.lookup(cl.User)
		recs := p.ObservePageView(cl, res)
		n++
		if err := pp.offer(e, cl.User, recs); err != nil {
			return n, err
		}
	}
	return n, nil
}

// offer hands a peer's own recommendations to the shard: applied under
// the journal with WithAutoApply(true), queued as pending otherwise. It
// carries on past a journaling failure — the peer has already counted
// the recommendations as made — and reports the first.
func (pp *peerPolicy) offer(e *engine, user string, recs []recommend.Recommendation) error {
	var firstErr error
	for _, rec := range recs {
		var err error
		if pp.cfg.autoApply {
			err = e.commit(user, rec, SubscribeConfig{})
		} else {
			err = e.addPending(user, rec)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// newFrontend builds the user's frontend and registers the user's peer
// beside it. The sidebar's clicks and expiries, capacity evictions
// included, feed back to the peer's recommender, as they feed the
// server's in the centralized deployment. The sidebar holds its peer: a
// user's frontend and peer are made together, once.
func (pp *peerPolicy) newFrontend(user string, sub frontend.Subscriber, proxy frontend.FeedProxy) *frontend.Frontend {
	p := core.NewPeer(core.PeerConfig{User: user})
	bar := frontend.NewSidebar(frontend.Config{
		Capacity: pp.cfg.sidebarCapacity,
		TTL:      pp.cfg.sidebarTTL,
		Feedback: func(feedURL string, d frontend.Disposition, at time.Time) {
			if feedURL != "" {
				p.ObserveEventFeedback(feedURL, d == frontend.DispositionClicked, at)
			}
		},
	})
	pp.mu.Lock()
	pp.peers[user] = p
	pp.mu.Unlock()
	return frontend.NewFrontend(user, sub, proxy, bar, pp.cfg.clock.Now)
}

// applied counts the subscriptions a peer has taken on, however they
// came: accepted, auto-applied, exchanged, placed directly or replayed.
func (pp *peerPolicy) applied(user string, rec recommend.Recommendation) {
	if rec.Kind == recommend.KindUnsubscribeFeed {
		return
	}
	pp.mu.Lock()
	pp.nApplied[user]++
	pp.mu.Unlock()
}

// reject feeds the peer's recommender, if the user has a peer: none is
// created just for feedback.
func (pp *peerPolicy) reject(user, feedURL string, at time.Time) {
	if p, ok := pp.lookup(user); ok {
		p.ObserveEventFeedback(feedURL, false, at)
	}
}

// ready has nothing to drain: a peer's recommendations reach the ledger
// as they are made.
func (pp *peerPolicy) ready(string) []recommend.Recommendation { return nil }

// capture adds nothing: the peer journals no clicks or flags, so the
// router's replay refuses any it meets.
func (pp *peerPolicy) capture(*durable.State) {}

func (pp *peerPolicy) samples(e *engine, out []metrics.Sample) []metrics.Sample {
	var subs, feeds, applied int
	peers := pp.sorted()
	for _, p := range peers {
		if fe, ok := e.lookup(p.User()); ok {
			subs += len(fe.ActiveSubscriptions())
		}
		feeds += len(p.KnownFeeds())
	}
	pp.mu.Lock()
	for _, n := range pp.nApplied {
		applied += n
	}
	pp.mu.Unlock()
	return append(out,
		metrics.Sample{Def: metrics.DistributedPeers, Value: float64(len(peers))},
		metrics.Sample{Def: metrics.DistributedSubs, Value: float64(subs)},
		metrics.Sample{Def: metrics.DistributedKnownFeeds, Value: float64(feeds)},
		metrics.Sample{Def: metrics.DistributedApplied, Value: float64(applied)},
	)
}

// lookup returns the user's peer without creating one.
func (pp *peerPolicy) lookup(user string) (*core.Peer, bool) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	p, ok := pp.peers[user]
	return p, ok
}

// sorted returns the shard's peers in user order.
func (pp *peerPolicy) sorted() []*core.Peer {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	out := make([]*core.Peer, 0, len(pp.peers))
	for _, p := range pp.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User() < out[j].User() })
	return out
}

// Subscribe implements Deployment. The WAIF-peer pipeline delivers
// best-effort only (the paper's peers have no server-side retention), so
// requesting AtLeastOnce is rejected with ErrUnsupported.
func (d *Distributed) Subscribe(ctx context.Context, user, feedURL string, opts ...SubscribeOption) (Subscription, error) {
	sc, err := d.subscribeArgs(ctx, user, feedURL, opts)
	if err != nil {
		return Subscription{}, err
	}
	if sc.Guarantee == AtLeastOnce {
		return Subscription{}, fmt.Errorf("%w: the distributed deployment delivers best-effort only", ErrUnsupported)
	}
	return d.shard(user).subscribe(user, feedURL, sc)
}

// Samples reports the deployment's series: each family merged across
// shards by its rule, plus the shard count.
func (d *Distributed) Samples(ctx context.Context) ([]metrics.Sample, error) {
	if err := d.checkOpen(ctx); err != nil {
		return nil, err
	}
	out, _ := d.samples()
	return out, nil
}

// Stats implements Deployment: the flat view of Samples.
func (d *Distributed) Stats(ctx context.Context) (Stats, error) {
	return flatStats(d.Samples(ctx))
}

// Users lists the users with live peers across all shards, sorted.
func (d *Distributed) Users() []string {
	var out []string
	for _, e := range d.shards {
		for _, p := range peersOf(e).sorted() {
			out = append(out, p.User())
		}
	}
	sort.Strings(out)
	return out
}

// KnownFeedCount reports how many distinct feeds a peer has discovered.
func (d *Distributed) KnownFeedCount(user string) int {
	p, ok := peersOf(d.shard(user)).lookup(user)
	if !ok {
		return 0
	}
	return len(p.KnownFeeds())
}

// AppliedCount reports how many recommendations a peer has applied.
func (d *Distributed) AppliedCount(user string) int {
	pp := peersOf(d.shard(user))
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.nApplied[user]
}

// SweepInactive runs each peer's unsubscribe policy across all shards.
// In manual mode the resulting unsubscribe recommendations queue as
// pending on the peer's shard; with WithAutoApply(true) they apply
// immediately. The sweep continues past a journaling failure and
// reports the first error alongside the count.
func (d *Distributed) SweepInactive(now time.Time) (int, error) {
	total := 0
	var firstErr error
	for _, e := range d.shards {
		pp := peersOf(e)
		for _, p := range pp.sorted() {
			recs := p.SweepInactive(now)
			total += len(recs)
			if err := pp.offer(e, p.User(), recs); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return total, firstErr
}

// ExchangeCommunities clusters peers by profile similarity and applies
// the collaborative feed recommendations each community yields, in
// either mode. Communities span shards — similarity, not hash placement,
// groups peers. It returns the number of communities and of
// recommendations applied.
func (d *Distributed) ExchangeCommunities(threshold float64, now time.Time) (communities, exchanged int) {
	var peers []*core.Peer
	for _, e := range d.shards {
		peers = append(peers, peersOf(e).sorted()...)
	}
	communities, recs := core.ExchangeRecommendations(peers, threshold, now)
	for i, p := range peers {
		e := d.shard(p.User())
		for _, rec := range recs[i] {
			if e.commit(p.User(), rec, SubscribeConfig{}) == nil {
				exchanged++
			}
		}
	}
	return communities, exchanged
}
