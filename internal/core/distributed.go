package core

import (
	"sync"
	"time"

	"reef/internal/attention"
	"reef/internal/community"
	"reef/internal/crawler"
	"reef/internal/feed"
	"reef/internal/frontend"
	"reef/internal/ir"
	"reef/internal/recommend"
	"reef/internal/simclock"
	"reef/internal/websim"
)

// PeerConfig wires one Distributed Reef peer (Figure 2).
type PeerConfig struct {
	// User is the peer's identity.
	User string
	// Subscriber places pub-sub subscriptions on the peer's edge broker.
	Subscriber frontend.Subscriber
	// Proxy manages WAIF feed registrations; may be nil.
	Proxy frontend.FeedProxy
	// Clock drives timestamps.
	Clock simclock.Clock
	// SidebarCapacity and SidebarTTL tune the display.
	SidebarCapacity int
	SidebarTTL      time.Duration
	// ManualApply defers locally generated recommendations instead of
	// auto-applying them: ObservePageView and SweepInactive return the
	// recommendations without executing them, leaving the decision to an
	// external controller (the public Deployment API's accept/reject
	// flow). Community exchange (ReceivePeerFeeds) still auto-applies.
	ManualApply bool
}

// Peer runs the entire Reef pipeline on the user's host: the attention
// data never leaves the machine, page content comes from the browser
// cache (no crawl traffic), and recommendations are generated and applied
// locally. Peers optionally exchange discovered feeds within interest
// communities (§4, §5.2).
type Peer struct {
	cfg      PeerConfig
	clock    simclock.Clock
	frontend *frontend.Frontend

	mu         sync.Mutex
	corpus     *ir.Corpus
	topicRec   *recommend.TopicRecommender
	contentRec *recommend.ContentRecommender
	knownFeeds map[string]struct{}
	applied    int
}

// NewPeer builds a distributed peer.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	sidebar := frontend.NewSidebar(frontend.Config{
		Capacity: cfg.SidebarCapacity,
		TTL:      cfg.SidebarTTL,
	})
	p := &Peer{
		cfg:        cfg,
		clock:      cfg.Clock,
		corpus:     ir.NewCorpus(),
		topicRec:   recommend.NewTopicRecommender(recommend.TopicConfig{}),
		knownFeeds: make(map[string]struct{}),
	}
	p.contentRec = recommend.NewContentRecommender(recommend.ContentConfig{}, p.corpus)
	p.frontend = frontend.NewFrontend(cfg.User, cfg.Subscriber, cfg.Proxy, sidebar, cfg.Clock.Now)
	return p
}

// User returns the peer's identity.
func (p *Peer) User() string { return p.cfg.User }

// Frontend exposes the peer's subscription frontend.
func (p *Peer) Frontend() *frontend.Frontend { return p.frontend }

// Sidebar exposes the display panel.
func (p *Peer) Sidebar() *frontend.Sidebar { return p.frontend.Sidebar() }

// ObservePageView processes one page view entirely locally: the page body
// comes from the browser cache (res), so no network fetch is needed. The
// peer classifies the page, discovers feeds, updates its profile, and
// immediately applies any new recommendations. It returns the
// recommendations generated.
func (p *Peer) ObservePageView(click attention.Click, res *websim.Resource) []recommend.Recommendation {
	host := click.Host()
	if host == "" || res == nil {
		return nil
	}
	now := click.At

	p.mu.Lock()
	p.topicRec.ObserveVisit(click.User, host, now)
	var recs []recommend.Recommendation
	if crawler.Classify(res) != 0 {
		// Ads, spam and media carry no subscription signal.
		p.mu.Unlock()
		return nil
	}
	for _, d := range discoverFeeds(res) {
		feedHost, _, err := websim.SplitURL(d)
		if err != nil {
			continue
		}
		if rec, ok := p.topicRec.ObserveFeed(p.cfg.User, d, feedHost, now); ok {
			recs = append(recs, rec)
		}
		p.knownFeeds[d] = struct{}{}
	}
	terms := ir.TermCounts(websim.ExtractText(res.Body))
	if len(terms) > 0 {
		p.corpus.Add(click.URL, terms)
		p.contentRec.ObservePage(p.cfg.User, terms)
	}
	p.mu.Unlock()

	if !p.cfg.ManualApply {
		n := p.applyAll(recs)
		p.mu.Lock()
		p.applied += n
		p.mu.Unlock()
	}
	return recs
}

// applyAll applies recs through the peer's frontend and returns how many
// took.
func (p *Peer) applyAll(recs []recommend.Recommendation) int {
	n := 0
	for _, rec := range recs {
		if p.frontend.Apply(rec) == nil {
			n++
		}
	}
	return n
}

// discoverFeeds returns autodiscovered feed URLs of a cached page.
func discoverFeeds(res *websim.Resource) []string {
	found := feed.Discover(res.URL, res.Body)
	out := make([]string, 0, len(found))
	for _, d := range found {
		out = append(out, d.Href)
	}
	return out
}

// SweepInactive runs the local unsubscribe policy and (unless ManualApply
// is set) applies the results.
func (p *Peer) SweepInactive(now time.Time) []recommend.Recommendation {
	p.mu.Lock()
	recs := p.topicRec.SweepInactive(now)
	p.mu.Unlock()
	if !p.cfg.ManualApply {
		p.applyAll(recs)
	}
	return recs
}

// KnownFeeds returns the peer's discovered feed set (for community
// exchange).
func (p *Peer) KnownFeeds() map[string]struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]struct{}, len(p.knownFeeds))
	for f := range p.knownFeeds {
		out[f] = struct{}{}
	}
	return out
}

// ProfileVector returns the peer's term profile for community clustering.
// Only the top terms travel (a privacy-preserving sketch, not the raw
// attention log).
func (p *Peer) ProfileVector() community.Vector {
	p.mu.Lock()
	defer p.mu.Unlock()
	terms := p.contentRec.SelectTermsBy(p.cfg.User, 50, ir.SelectRawTF)
	v := make(community.Vector, len(terms))
	for _, t := range terms {
		v[t.Term] = t.Score
	}
	return v
}

// ReceivePeerFeeds ingests feed URLs recommended by community peers,
// applying subscriptions for unknown ones. It returns how many were new.
func (p *Peer) ReceivePeerFeeds(feeds []string, now time.Time) int {
	return p.applyAll(p.peerFeedRecommendations(feeds, now))
}

// peerFeedRecommendations ingests feed URLs recommended by community
// peers and returns the subscribe recommendations the unknown ones earn,
// without applying them.
func (p *Peer) peerFeedRecommendations(feeds []string, now time.Time) []recommend.Recommendation {
	var recs []recommend.Recommendation
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range feeds {
		feedHost, _, err := websim.SplitURL(f)
		if err != nil {
			continue
		}
		if _, known := p.knownFeeds[f]; known {
			continue
		}
		p.knownFeeds[f] = struct{}{}
		// Community provenance substitutes for a direct visit.
		p.topicRec.ObserveVisit(p.cfg.User, feedHost, now)
		if rec, ok := p.topicRec.ObserveFeed(p.cfg.User, f, feedHost, now); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// AppliedRecommendations reports how many recommendations the peer has
// auto-applied.
func (p *Peer) AppliedRecommendations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applied
}

// ObserveEventFeedback routes sidebar dispositions into the local
// recommender (closed loop).
func (p *Peer) ObserveEventFeedback(feedURL string, clicked bool, at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topicRec.ObserveFeedback(p.cfg.User, feedURL, clicked, at)
}

// Close tears down the peer's subscriptions.
func (p *Peer) Close() {
	p.frontend.Close()
}

// ExchangeCommunities clusters peers by profile similarity and applies
// the collaborative feed recommendations within each community through
// the receiving peers' frontends. It returns the number of communities
// and the total recommendations applied.
func ExchangeCommunities(peers []*Peer, threshold float64, now time.Time) (int, int) {
	comms, recs := ExchangeRecommendations(peers, threshold, now)
	total := 0
	for i, p := range peers {
		total += p.applyAll(recs[i])
	}
	return comms, total
}

// ExchangeRecommendations clusters peers by profile similarity and
// returns the number of communities and, for each peer in order, the
// subscribe recommendations it draws from its community's feeds — the
// feeds now count as known to the peer, but applying is left to the
// caller.
func ExchangeRecommendations(peers []*Peer, threshold float64, now time.Time) (int, [][]recommend.Recommendation) {
	members := make([]community.Member, 0, len(peers))
	known := make(map[string]map[string]struct{}, len(peers))
	for _, p := range peers {
		members = append(members, community.Member{ID: p.User(), Profile: p.ProfileVector()})
		known[p.User()] = p.KnownFeeds()
	}
	comms := community.BuildCommunities(members, threshold)
	shared := community.Exchange(comms, known)
	recs := make([][]recommend.Recommendation, len(peers))
	for i, p := range peers {
		recs[i] = p.peerFeedRecommendations(shared[p.User()], now)
	}
	return len(comms), recs
}
