package core

import (
	"sync"
	"time"

	"reef/internal/attention"
	"reef/internal/community"
	"reef/internal/crawler"
	"reef/internal/feed"
	"reef/internal/ir"
	"reef/internal/recommend"
	"reef/internal/websim"
)

// PeerConfig wires one Distributed Reef peer (Figure 2).
type PeerConfig struct {
	// User is the peer's identity.
	User string
}

// Peer runs the Reef analysis on the user's host: the attention data
// never leaves the machine, page content comes from the browser cache (no
// crawl traffic), and recommendations are generated locally. Peers
// optionally exchange discovered feeds within interest communities (§4,
// §5.2). A peer only recommends: applying a recommendation is the
// caller's.
type Peer struct {
	cfg PeerConfig

	mu         sync.Mutex
	corpus     *ir.Corpus
	topicRec   *recommend.TopicRecommender
	contentRec *recommend.ContentRecommender
	knownFeeds map[string]struct{}
	// self is the peer's user's state in topicRec, found at the first
	// feedback after the user has one, so feedback does not hash the user.
	self *recommend.UserState
}

// NewPeer builds a distributed peer.
func NewPeer(cfg PeerConfig) *Peer {
	p := &Peer{
		cfg:        cfg,
		corpus:     ir.NewCorpus(),
		topicRec:   recommend.NewTopicRecommender(recommend.TopicConfig{}),
		knownFeeds: make(map[string]struct{}),
	}
	p.contentRec = recommend.NewContentRecommender(recommend.ContentConfig{}, p.corpus)
	return p
}

// User returns the peer's identity.
func (p *Peer) User() string { return p.cfg.User }

// ObservePageView processes one page view entirely locally: the page body
// comes from the browser cache (res), so no network fetch is needed. The
// peer classifies the page, discovers feeds and updates its profile. It
// returns the recommendations generated.
func (p *Peer) ObservePageView(click attention.Click, res *websim.Resource) []recommend.Recommendation {
	host := click.Host()
	if host == "" || res == nil {
		return nil
	}
	now := click.At

	p.mu.Lock()
	defer p.mu.Unlock()
	p.topicRec.ObserveVisit(click.User, host, now)
	if crawler.Classify(res) != 0 {
		// Ads, spam and media carry no subscription signal.
		return nil
	}
	var recs []recommend.Recommendation
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
	return recs
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

// SweepInactive runs the local unsubscribe policy and returns its
// recommendations.
func (p *Peer) SweepInactive(now time.Time) []recommend.Recommendation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.topicRec.SweepInactive(now)
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

// peerFeedRecommendations ingests feed URLs recommended by community
// peers and returns the subscribe recommendations the unknown ones earn.
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

// ObserveEventFeedback routes sidebar dispositions into the local
// recommender (closed loop). Before the peer has seen its user browse
// there is nothing to score, and the call is a no-op.
func (p *Peer) ObserveEventFeedback(feedURL string, clicked bool, at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.self == nil {
		p.self = p.topicRec.Lookup(p.cfg.User)
	}
	p.self.ObserveFeedback(feedURL, clicked, at)
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
