// Package core is Reef's analysis: clicks and pages in, subscribe and
// unsubscribe recommendations out, for the paper's two deployments.
// Centralized Reef (Figure 1) runs it on a server that holds the click
// database, crawls visited pages and queues recommendations per user;
// Distributed Reef (Figure 2) runs it on the user's host over the browser
// cache, and peers exchange recommendations within interest communities.
// Nothing here places a subscription: applying a recommendation is the
// caller's.
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"reef/internal/attention"
	"reef/internal/crawler"
	"reef/internal/durable"
	"reef/internal/ir"
	"reef/internal/metrics"
	"reef/internal/recommend"
	"reef/internal/store"
	"reef/internal/websim"
)

// ServerConfig tunes a centralized Reef server.
type ServerConfig struct {
	// Fetcher is the crawler's access to the web.
	Fetcher websim.Fetcher
	// Journal receives a WAL record for every durable mutation the server
	// performs (click batches, server flags). Nil disables journaling.
	Journal *durable.Journal
}

// PipelineStats summarizes one RunPipeline invocation.
type PipelineStats struct {
	// Crawled is the number of URLs fetched and analyzed.
	Crawled int
	// CrawlErrors counts failed fetches.
	CrawlErrors int
	// FeedsDiscovered counts autodiscovered feed references (with
	// duplicates across pages).
	FeedsDiscovered int
	// Recommendations counts new subscribe/unsubscribe recommendations
	// appended to user outboxes.
	Recommendations int
	// FlaggedServers counts servers newly flagged ad/spam/multimedia.
	FlaggedServers int
}

// Server is the centralized Reef server: click database, crawler,
// recommenders and per-user recommendation outboxes. ReceiveClicks takes
// a batch of clicks (step 1 of Figure 1); Recommendations drains a user's
// outbox (step 2). Each durable mutation has one bare form (ApplyClicks,
// Store().SetFlag) that replay calls, and a live form that journals it
// (ReceiveClicks, the pipeline's flagging).
type Server struct {
	cfg     ServerConfig
	store   *store.ClickStore
	crawl   *crawler.Crawler
	reg     *metrics.Registry
	journal *durable.Journal

	mu sync.Mutex
	// pendingCrawl batches URLs for the next pipeline run ("the URIs in
	// them are batched for periodic crawling", §3.1).
	pendingCrawl []string
	pendingSeen  map[string]struct{}
	// urlUsers remembers which users visited each URL (for attributing
	// crawl analysis to user profiles). A URL has few visitors, so a
	// slice scanned for membership costs less than a set.
	urlUsers map[string][]string
	// corpus is the background collection built from crawled content
	// pages; the content recommender's statistics come from here.
	corpus     *ir.Corpus
	topicRec   *recommend.TopicRecommender
	contentRec *recommend.ContentRecommender
	outbox     map[string][]recommend.Recommendation
	// feedsSeen is the distinct feed URLs the crawler has found (§3.2's
	// "424 distinct RSS feeds were found").
	feedsSeen map[string]struct{}
	// uploadBytes approximates click-upload network cost (F1 metric).
	uploadBytes int64
}

// NewServer builds a centralized Reef server.
func NewServer(cfg ServerConfig) *Server {
	st := store.NewClickStore()
	s := &Server{
		cfg:     cfg,
		store:   st,
		reg:     metrics.NewRegistry(),
		journal: cfg.Journal,

		pendingSeen: make(map[string]struct{}),
		urlUsers:    make(map[string][]string),
		corpus:      ir.NewCorpus(),
		topicRec:    recommend.NewTopicRecommender(recommend.TopicConfig{}),
		outbox:      make(map[string][]recommend.Recommendation),
		feedsSeen:   make(map[string]struct{}),
	}
	s.contentRec = recommend.NewContentRecommender(recommend.ContentConfig{}, s.corpus)
	s.crawl = crawler.New(crawler.Config{
		Fetcher: cfg.Fetcher,
		Skip: func(host string) bool {
			// Never re-crawl flagged or already-crawled hosts (§3.1).
			return st.HasFlag(host, store.FlagAd|store.FlagSpam|store.FlagMultimedia|store.FlagCrawled)
		},
	})
	return s
}

// DisableFlagSkip turns off the §3.1 flag-and-skip policy for the A3
// ablation: the crawler refetches every URL (no host skip, no
// classification), so ads and spam are analyzed like ordinary content.
// Call before the first pipeline run.
func (s *Server) DisableFlagSkip() {
	s.crawl = crawler.New(crawler.Config{
		Fetcher:               s.cfg.Fetcher,
		DisableClassification: true,
	})
}

// Store exposes the click database (experiments read aggregates from it).
func (s *Server) Store() *store.ClickStore { return s.store }

// Corpus exposes the crawled-page background corpus.
func (s *Server) Corpus() *ir.Corpus { return s.corpus }

// ContentRecommender exposes the content recommender for ranking flows.
func (s *Server) ContentRecommender() *recommend.ContentRecommender { return s.contentRec }

// TopicRecommender exposes the topic recommender.
func (s *Server) TopicRecommender() *recommend.TopicRecommender { return s.topicRec }

// Metrics exposes server instrumentation.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// UploadBytes reports accumulated click-upload network cost.
func (s *Server) UploadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploadBytes
}

// ReceiveClicks is ApplyClicks under the journal, which logs the batch as
// one WAL record once it applied.
func (s *Server) ReceiveClicks(batch []attention.Click) error {
	return s.journal.Record(
		func() error { s.ApplyClicks(batch); return nil },
		func() durable.Record { return durable.ClicksRecord(batch) },
	)
}

// ApplyClicks is the bare mutation behind ReceiveClicks: it stores the
// batch, notes host visits for the topic recommender, and queues page
// URLs for the next crawl round, journaling nothing. Replay — recovery,
// and replica apply, which appends the received record itself inside
// durable.Journal.Ingest — calls it directly: going through
// ReceiveClicks there would deadlock on the journal lock. Everything it
// keeps of a click holds the store's interned strings, not the batch's.
func (s *Server) ApplyClicks(batch []attention.Click) {
	batch = s.store.AddBatch(batch)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range batch {
		s.uploadBytes += int64(len(c.URL) + len(c.User) + 32) // timestamp+cookie overhead
		host := c.Host()
		if host == "" {
			continue
		}
		s.topicRec.ObserveVisit(c.User, host, c.At)
		if _, dup := s.pendingSeen[c.URL]; !dup {
			s.pendingSeen[c.URL] = struct{}{}
			s.pendingCrawl = append(s.pendingCrawl, c.URL)
		}
		if users := s.urlUsers[c.URL]; !slices.Contains(users, c.User) {
			s.urlUsers[c.URL] = append(users, c.User)
		}
	}
	s.reg.Counter("clicks_received").Add(int64(len(batch)))
}

// setFlag ors a classification flag onto a host, journaled. RunPipeline
// has no error path, so a failed append surfaces as the journal_errors
// counter: the flag stays set in memory and the operator sees the
// durability gap in /v1/stats.
func (s *Server) setFlag(host string, f store.Flag) {
	if s.store.Flags(host)&f == f {
		// Flags are OR-ed on apply and replay, so a record that sets no
		// new bit changes nothing.
		return
	}
	if err := s.journal.Record(
		func() error { s.store.SetFlag(host, f); return nil },
		func() durable.Record { return durable.FlagRecord(host, int(f)) },
	); err != nil {
		s.reg.Counter("journal_errors").Inc()
	}
}

// PendingCrawl reports the queued URL count.
func (s *Server) PendingCrawl() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pendingCrawl)
}

// RunPipeline performs one periodic analysis round: crawl the queued URLs,
// flag ad/spam/multimedia servers, feed discoveries and page terms into
// the recommenders, and sweep inactive subscriptions. New recommendations
// land in per-user outboxes.
func (s *Server) RunPipeline(now time.Time) PipelineStats {
	s.mu.Lock()
	batch := s.pendingCrawl
	s.pendingCrawl = nil
	s.pendingSeen = make(map[string]struct{})
	s.mu.Unlock()

	results := s.crawl.Crawl(batch)

	// Flag pass, outside s.mu: the journal serializes apply+append under
	// its own exclusive lock, and no Record call may happen while holding
	// a lock another Record's apply needs (see durable.Journal.Record).
	var stats PipelineStats
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if r.Flags != 0 {
			if s.store.Flags(r.Host)&r.Flags != r.Flags {
				stats.FlaggedServers++
			}
			s.setFlag(r.Host, r.Flags)
		} else {
			s.setFlag(r.Host, store.FlagCrawled)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range results {
		if r.Err != nil {
			stats.CrawlErrors++
			continue
		}
		stats.Crawled++
		if r.Flags != 0 {
			continue
		}

		users := s.urlUsers[r.URL]
		// Feed discoveries become topic-based recommendations.
		for _, d := range r.Feeds {
			stats.FeedsDiscovered++
			s.feedsSeen[d.Href] = struct{}{}
			feedHost, _, err := websim.SplitURL(d.Href)
			if err != nil {
				continue
			}
			for _, user := range users {
				if rec, ok := s.topicRec.ObserveFeed(user, d.Href, feedHost, now); ok {
					s.outbox[user] = append(s.outbox[user], rec)
					stats.Recommendations++
				}
			}
		}
		// Page text grows the background corpus and user profiles.
		if len(r.Terms) > 0 {
			s.corpus.Add(r.URL, r.Terms)
			for _, user := range users {
				s.contentRec.ObservePage(user, r.Terms)
			}
		}
	}

	// Unsubscribe sweep.
	for _, rec := range s.topicRec.SweepInactive(now) {
		s.outbox[rec.User] = append(s.outbox[rec.User], rec)
		stats.Recommendations++
	}

	s.reg.Counter("pipeline_runs").Inc()
	s.reg.Counter("urls_crawled").Add(int64(stats.Crawled))
	s.reg.Counter("recommendations").Add(int64(stats.Recommendations))
	return stats
}

// DistinctFeedsFound reports how many distinct feed URLs the crawler has
// discovered so far.
func (s *Server) DistinctFeedsFound() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.feedsSeen)
}

// ObserveEventFeedback routes closed-loop sidebar feedback (clicks and
// expiries on delivered events) back into the topic recommender.
func (s *Server) ObserveEventFeedback(user, feedURL string, clicked bool, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topicRec.ObserveFeedback(user, feedURL, clicked, at)
}

// UserFeedback is one user's route for sidebar feedback into the server's
// topic recommender: ObserveEventFeedback without hashing the user ID on
// every call. It finds the user's recommender state at the first call
// after the user has one and holds it from then on; until then a call is
// a no-op, as ObserveEventFeedback is for a user with no state.
type UserFeedback struct {
	s    *Server
	user string
	st   *recommend.UserState // guarded by s.mu; nil until the user has state
}

// Feedback returns the user's feedback route.
func (s *Server) Feedback(user string) *UserFeedback {
	return &UserFeedback{s: s, user: user}
}

// Observe is ObserveEventFeedback for the route's user.
func (fb *UserFeedback) Observe(feedURL string, clicked bool, at time.Time) {
	fb.s.mu.Lock()
	defer fb.s.mu.Unlock()
	if fb.st == nil {
		fb.st = fb.s.topicRec.Lookup(fb.user)
	}
	fb.st.ObserveFeedback(feedURL, clicked, at)
}

// Recommendations drains the user's outbox (Figure 1, step 2: the server
// recommends subscribe/unsubscribe actions to the user).
func (s *Server) Recommendations(user string) []recommend.Recommendation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.outbox[user]
	delete(s.outbox, user)
	return out
}

// QueueFeedRecommendation puts a recommendation for feedURL in the user's
// outbox as if the pipeline had found the feed, without a crawl. Tests
// seed outboxes with it.
func (s *Server) QueueFeedRecommendation(user, feedURL string, now time.Time) error {
	host, _, err := websim.SplitURL(feedURL)
	if err != nil {
		return fmt.Errorf("core: bad feed URL: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topicRec.ObserveVisit(user, host, now)
	if rec, ok := s.topicRec.ObserveFeed(user, feedURL, host, now); ok {
		s.outbox[user] = append(s.outbox[user], rec)
	}
	return nil
}
