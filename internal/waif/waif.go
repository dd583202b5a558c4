// Package waif implements the WAIF FeedEvents proxy the paper deploys
// subscriptions at ([2], §3): a push-based wrapper around pull-based Web
// resources. The proxy polls each feed once on behalf of all its
// subscribers, detects new items by GUID, and publishes them as events
// into the pub-sub substrate — making Reef's recommendations backwards
// compatible with the pull-based Web.
package waif

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"reef/internal/eventalg"
	"reef/internal/feed"
	"reef/internal/metrics"
	"reef/internal/pubsub"
	"reef/internal/websim"
)

// EventAttrType is the value of the "type" attribute on feed-item events.
const EventAttrType = "feed-item"

// ErrProxyClosed is returned by operations on a closed proxy.
var ErrProxyClosed = errors.New("waif: proxy closed")

// Publisher abstracts the pub-sub injection point; *pubsub.Node satisfies
// it, and tests use a capture function. The context bounds blocking
// deliveries downstream.
type Publisher interface {
	Publish(ctx context.Context, ev pubsub.Event) error
}

// PublisherFunc adapts a function to Publisher.
type PublisherFunc func(ctx context.Context, ev pubsub.Event) error

// Publish implements Publisher.
func (f PublisherFunc) Publish(ctx context.Context, ev pubsub.Event) error { return f(ctx, ev) }

// ItemFilter returns the subscription filter matching items of one feed —
// the topic-based subscription Reef places for a recommended feed.
func ItemFilter(feedURL string) eventalg.Filter {
	return eventalg.NewFilter(
		eventalg.C("type", eventalg.OpEq, eventalg.String(EventAttrType)),
		eventalg.C("feed", eventalg.OpEq, eventalg.String(feedURL)),
	)
}

// ItemEvent converts one feed item to a pub-sub event. The pairs are
// written in name order, so the literal is already canonical.
func ItemEvent(feedURL string, it feed.Item) pubsub.Event {
	return pubsub.Event{
		Attrs: eventalg.Attrs{
			{Name: "feed", Val: eventalg.String(feedURL)},
			{Name: "link", Val: eventalg.String(it.Link)},
			{Name: "title", Val: eventalg.String(it.Title)},
			{Name: "type", Val: eventalg.String(EventAttrType)},
		},
		Payload:   []byte(it.Description),
		Source:    feedURL,
		Published: it.Published,
	}
}

// proxyFeed is the proxy's per-feed state.
type proxyFeed struct {
	url      string
	refcount int
	seen     map[string]struct{}
	nextPoll time.Time
	// primed marks that the first poll happened; the first poll seeds
	// `seen` without publishing, so subscribers receive only items that
	// appear after they subscribed.
	primed bool
}

// Config tunes the proxy.
type Config struct {
	// Fetcher retrieves feed documents.
	Fetcher websim.Fetcher
	// Publish receives the events for new items.
	Publish Publisher
	// PollEvery is the per-feed poll interval (default 30 minutes).
	PollEvery time.Duration
}

// Proxy is the FeedEvents service. It is safe for concurrent use; polling
// is driven by the owner calling PollDue with the current (possibly
// simulated) time.
type Proxy struct {
	cfg Config
	reg *metrics.Registry

	mu     sync.Mutex
	closed bool
	feeds  map[string]*proxyFeed
}

// New builds a proxy.
func New(cfg Config) *Proxy {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 30 * time.Minute
	}
	return &Proxy{
		cfg:   cfg,
		reg:   metrics.NewRegistry(),
		feeds: make(map[string]*proxyFeed),
	}
}

// Metrics exposes polls, poll_errors, items_published, and the
// subscriber-poll savings counter polls_saved (polls that per-user pulling
// would have issued but shared polling did not).
func (p *Proxy) Metrics() *metrics.Registry { return p.reg }

// Subscribe registers interest in a feed (refcounted). The first
// subscription schedules the feed for immediate priming.
func (p *Proxy) Subscribe(feedURL string, now time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrProxyClosed
	}
	pf, ok := p.feeds[feedURL]
	if !ok {
		pf = &proxyFeed{
			url:      feedURL,
			seen:     make(map[string]struct{}),
			nextPoll: now,
		}
		p.feeds[feedURL] = pf
	}
	pf.refcount++
	return nil
}

// Unsubscribe drops one registration; the feed stops being polled when its
// refcount reaches zero.
func (p *Proxy) Unsubscribe(feedURL string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pf, ok := p.feeds[feedURL]
	if !ok {
		return
	}
	pf.refcount--
	if pf.refcount <= 0 {
		delete(p.feeds, feedURL)
	}
}

// NumFeeds reports distinct feeds under management.
func (p *Proxy) NumFeeds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.feeds)
}

// Subscribers reports the refcount for a feed.
func (p *Proxy) Subscribers(feedURL string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pf, ok := p.feeds[feedURL]; ok {
		return pf.refcount
	}
	return 0
}

// PollDue polls every feed whose next poll time has arrived, publishing
// events for unseen items. It returns the number of feeds polled and
// items published. Fetch or parse failures count in poll_errors and defer
// the feed to the next interval (transient failures must not kill the
// poller).
func (p *Proxy) PollDue(ctx context.Context, now time.Time) (polled, published int) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, 0
	}
	var due []*proxyFeed
	for _, pf := range p.feeds {
		if !pf.nextPoll.After(now) {
			due = append(due, pf)
		}
	}
	// Record the shared-polling savings: per-user pulling would poll once
	// per subscriber.
	for _, pf := range due {
		if pf.refcount > 1 {
			p.reg.Counter("polls_saved").Add(int64(pf.refcount - 1))
		}
	}
	p.mu.Unlock()

	for _, pf := range due {
		if ctx.Err() != nil {
			return polled, published
		}
		polled++
		n, err := p.pollOne(ctx, pf, now)
		if err != nil {
			p.reg.Counter("poll_errors").Inc()
		}
		published += n
	}
	return polled, published
}

// pollOne fetches one feed and publishes its new items.
func (p *Proxy) pollOne(ctx context.Context, pf *proxyFeed, now time.Time) (int, error) {
	p.reg.Counter("polls").Inc()
	res, err := p.cfg.Fetcher.Fetch(pf.url)
	if err != nil {
		p.deferPoll(pf, now)
		return 0, fmt.Errorf("waif: polling %s: %w", pf.url, err)
	}
	f, err := feed.Parse(pf.url, res.Body)
	if err != nil {
		p.deferPoll(pf, now)
		return 0, err
	}

	p.mu.Lock()
	fresh := f.NewItems(pf.seen)
	for _, it := range fresh {
		pf.seen[it.GUID] = struct{}{}
	}
	prime := !pf.primed
	pf.primed = true
	pf.nextPoll = now.Add(p.cfg.PollEvery)
	p.mu.Unlock()

	if prime {
		// First contact: seed state silently so a new subscriber is not
		// flooded with the feed's entire backlog.
		return 0, nil
	}
	published := 0
	for _, it := range fresh {
		if err := p.cfg.Publish.Publish(ctx, ItemEvent(pf.url, it)); err != nil {
			return published, fmt.Errorf("waif: publishing item from %s: %w", pf.url, err)
		}
		published++
		p.reg.Counter("items_published").Inc()
	}
	return published, nil
}

func (p *Proxy) deferPoll(pf *proxyFeed, now time.Time) {
	p.mu.Lock()
	pf.nextPoll = now.Add(p.cfg.PollEvery)
	p.mu.Unlock()
}

// Close stops the proxy; further Subscribe calls fail and PollDue becomes
// a no-op.
func (p *Proxy) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
}
