package reef

import (
	"context"
	"fmt"
	"time"

	"reef/internal/builtin"
	"reef/internal/core"
	"reef/internal/delivery"
	"reef/internal/durable"
	"reef/internal/frontend"
	"reef/internal/metrics"
	"reef/internal/recommend"
)

// Centralized is the public face of the paper's Figure 1 deployment: a
// Reef server holding the click database, crawler and recommenders, plus
// server-hosted per-user frontends and sidebars so the whole
// recommendation lifecycle — ingest, recommend, accept, deliver — is
// drivable through the Deployment interface (and therefore over REST).
//
// Internally it is the shared router over WithShards(n) engine shards,
// each with a server click policy: one core.Server per shard analyzes
// its users' clicks.
type Centralized struct {
	*router
}

var (
	_ Deployment          = (*Centralized)(nil)
	_ Persister           = (*Centralized)(nil)
	_ Sharder             = (*Centralized)(nil)
	_ ReliableDeliverer   = (*Centralized)(nil)
	_ StreamDeliverer     = (*Centralized)(nil)
	_ BatchCountPublisher = (*Centralized)(nil)
)

func init() { builtin.Of = builtinEntry }

// builtinEntry gives the stream its internal entry into the two built-in
// deployments. It switches on the dynamic type: a type that embeds one of
// them is not one of them, and is served through its own methods.
func builtinEntry(dep any) (builtin.Entry, bool) {
	switch d := dep.(type) {
	case *Centralized:
		return builtin.Entry{Publish: d.publishEvents, Fetch: d.fetchDelivered}, true
	case *Distributed:
		return builtin.Entry{Publish: d.publishEvents}, true
	}
	return builtin.Entry{}, false
}

// NewCentralized builds the centralized deployment. WithFetcher is
// required: it is the crawler's access to the web and the WAIF proxy's
// feed poller. With WithDataDir the constructor first recovers the
// directory's persisted state — snapshot, then intact WAL tail, in
// order, each operation routed to the shard its user hashes to — before
// arming live journaling, so an unclean predecessor's state is back
// before the first call lands. The node has one journal at the
// directory root whatever its shard count, so any count opens any
// directory; a directory an older release wrote in the per-shard layout
// is imported once (see WithShards).
func NewCentralized(opts ...Option) (*Centralized, error) {
	cfg := buildConfig(opts)
	if cfg.fetcher == nil {
		return nil, fmt.Errorf("%w: NewCentralized requires WithFetcher", ErrInvalidArgument)
	}
	r, err := openRouter(cfg, newServerPolicy)
	if err != nil {
		return nil, err
	}
	return &Centralized{r}, nil
}

// serverPolicy is the Figure 1 click policy: clicks upload to a
// core.Server, which stores them (journaled as click batches, with the
// crawler's server flags), crawls the pages in its pipeline rounds and
// queues recommendations in per-user outboxes. The router replays those
// records itself (router.replayClickStore).
type serverPolicy struct {
	cfg    config
	server *core.Server
}

func newServerPolicy(cfg config, journal *durable.Journal) clickPolicy {
	return &serverPolicy{cfg: cfg, server: core.NewServer(core.ServerConfig{Fetcher: cfg.fetcher, Journal: journal})}
}

// serverOf returns a centralized shard's core server.
func serverOf(e *engine) *core.Server { return e.policy.(*serverPolicy).server }

// ingest lands the batch in the shard's click store and queues page URLs
// for the next pipeline round.
func (sp *serverPolicy) ingest(_ context.Context, _ *engine, clicks []Click) (int, error) {
	if err := sp.server.ReceiveClicks(clicks); err != nil {
		return 0, err
	}
	return len(clicks), nil
}

// newFrontend builds a user's frontend over a sidebar whose clicks and
// expiries feed back to the server's recommender, through the user's
// feedback route rather than by user ID.
func (sp *serverPolicy) newFrontend(user string, sub frontend.Subscriber, proxy frontend.FeedProxy) *frontend.Frontend {
	fb := sp.server.Feedback(user)
	bar := frontend.NewSidebar(frontend.Config{
		Capacity: sp.cfg.sidebarCapacity,
		TTL:      sp.cfg.sidebarTTL,
		Feedback: func(feedURL string, d frontend.Disposition, at time.Time) {
			if feedURL == "" {
				return
			}
			fb.Observe(feedURL, d == frontend.DispositionClicked, at)
		},
	})
	return frontend.NewFrontend(user, sub, proxy, bar, sp.cfg.clock.Now)
}

func (sp *serverPolicy) applied(string, recommend.Recommendation) {}

func (sp *serverPolicy) reject(user, feedURL string, at time.Time) {
	sp.server.ObserveEventFeedback(user, feedURL, false, at)
}

func (sp *serverPolicy) ready(user string) []recommend.Recommendation {
	return sp.server.Recommendations(user)
}

// capture adds the shard's clicks and flags; a host two shards flagged
// carries the union of their flags.
func (sp *serverPolicy) capture(st *durable.State) {
	clicks, flags := sp.server.Store().Dump()
	if st.Clicks == nil {
		st.Clicks = clicks // the first shard's dump is already a private copy
	} else {
		st.Clicks = append(st.Clicks, clicks...)
	}
	for h, f := range flags {
		if st.Flags == nil {
			st.Flags = make(map[string]int, len(flags))
		}
		st.Flags[h] |= int(f)
	}
}

// samples adds the server's counters and the shard's store, proxy,
// delivery and frontend series, in the key set the unsharded deployment
// has always reported. distinct_servers is the deployment's own (see
// Centralized.Samples).
func (sp *serverPolicy) samples(e *engine, out []metrics.Sample) []metrics.Sample {
	out = metrics.AppendRegistry(out, sp.server.Metrics(), "")
	out = metrics.AppendRegistry(out, e.proxy.Metrics(), "proxy_")
	dt := e.deliveries.Totals()
	e.mu.Lock()
	fronts := len(e.fronts)
	e.mu.Unlock()
	return append(out,
		metrics.Sample{Def: metrics.ClicksStored, Value: float64(sp.server.Store().Len())},
		metrics.Sample{Def: metrics.FeedsDiscovered, Value: float64(sp.server.DistinctFeedsFound())},
		metrics.Sample{Def: metrics.UploadBytes, Value: float64(sp.server.UploadBytes())},
		metrics.Sample{Def: metrics.DeliveryReliableSubs, Value: float64(dt.Queues)},
		metrics.Sample{Def: metrics.DeliveryRetained, Value: float64(dt.Retained)},
		metrics.Sample{Def: metrics.DeliveryAcked, Value: float64(dt.Acked)},
		metrics.Sample{Def: metrics.DeliveryRedeliveries, Value: float64(dt.Redeliveries)},
		metrics.Sample{Def: metrics.DeliveryDeadLetters, Value: float64(dt.DeadLetters)},
		metrics.Sample{Def: metrics.DeliveryLeaseExpiries, Value: float64(dt.LeaseExpiries)},
		metrics.Sample{Def: metrics.UsersWithFrontends, Value: float64(fronts)},
	)
}

// Subscribe implements Deployment: it places a feed subscription
// immediately on the user's shard, bypassing the recommendation queue.
func (c *Centralized) Subscribe(ctx context.Context, user, feedURL string, opts ...SubscribeOption) (Subscription, error) {
	sc, err := c.subscribeArgs(ctx, user, feedURL, opts)
	if err != nil {
		return Subscription{}, err
	}
	return c.shard(user).subscribe(user, feedURL, sc)
}

// FetchEvents implements ReliableDeliverer: it leases up to max retained
// events of one at-least-once subscription, in sequence order, from the
// user's shard.
func (c *Centralized) FetchEvents(ctx context.Context, user, subID string, max int) ([]DeliveredEvent, error) {
	if err := c.reliableArgs(ctx, user); err != nil {
		return nil, err
	}
	if err := validateSubID(subID); err != nil {
		return nil, err
	}
	return c.shard(user).fetchEvents(user, subID, max)
}

// FetchEventsInto implements StreamDeliverer: FetchEvents appending into
// a caller-reused buffer.
func (c *Centralized) FetchEventsInto(ctx context.Context, user, subID string, dst []DeliveredEvent, max int) ([]DeliveredEvent, error) {
	if err := c.reliableArgs(ctx, user); err != nil {
		return dst, err
	}
	if err := validateSubID(subID); err != nil {
		return dst, err
	}
	return c.shard(user).fetchEventsInto(user, subID, dst, max)
}

// fetchDelivered is FetchEventsInto in the events' internal form: the
// stream's push entry (builtin.Entry.Fetch).
func (c *Centralized) fetchDelivered(ctx context.Context, user, subID string, dst []delivery.Delivered, max int) ([]delivery.Delivered, error) {
	if err := c.reliableArgs(ctx, user); err != nil {
		return dst, err
	}
	if err := validateSubID(subID); err != nil {
		return dst, err
	}
	return c.shard(user).fetchDelivered(user, subID, dst, max)
}

// NotifyEvents implements StreamDeliverer: it registers ch on the
// subscription's append hook so a pushed or long-polling consumer wakes
// the moment an event is retained, with the same resolution errors as
// FetchEvents.
func (c *Centralized) NotifyEvents(user, subID string, ch chan<- struct{}) (func(), error) {
	if err := c.reliableArgs(context.Background(), user); err != nil {
		return nil, err
	}
	if err := validateSubID(subID); err != nil {
		return nil, err
	}
	return c.shard(user).notifyEvents(user, subID, ch)
}

// Ack implements ReliableDeliverer: it advances the subscription's
// durable cumulative cursor (or, with nack set, requests immediate
// redelivery of the leased events at or below seq).
func (c *Centralized) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	if err := c.reliableArgs(ctx, user); err != nil {
		return err
	}
	if err := validateSubID(subID); err != nil {
		return err
	}
	return c.shard(user).ack(user, subID, seq, nack)
}

// DeadLetters implements ReliableDeliverer. An empty subID aggregates
// every reliable subscription of the user.
func (c *Centralized) DeadLetters(ctx context.Context, user, subID string) ([]DeadLetter, error) {
	if err := c.reliableArgs(ctx, user); err != nil {
		return nil, err
	}
	return c.shard(user).deadLetters(user, subID, false)
}

// DrainDeadLetters implements ReliableDeliverer.
func (c *Centralized) DrainDeadLetters(ctx context.Context, user, subID string) ([]DeadLetter, error) {
	if err := c.reliableArgs(ctx, user); err != nil {
		return nil, err
	}
	return c.shard(user).deadLetters(user, subID, true)
}

// reliableArgs validates the arguments every reliable-delivery call
// shares; the subscription ID is checked separately because the
// dead-letter calls accept an empty (aggregate) one.
func (c *Centralized) reliableArgs(ctx context.Context, user string) error {
	if err := c.checkOpen(ctx); err != nil {
		return err
	}
	return validateUser(user)
}

// Samples reports the deployment's series. Each family merges across
// shards by its rule (one shard reports its own unchanged),
// distinct_servers counts each host once however many shard stores know
// it, and a sharded deployment adds each shard's clicks stored, users
// with frontends and pending recommendations under a shard label.
func (c *Centralized) Samples(ctx context.Context) ([]metrics.Sample, error) {
	if err := c.checkOpen(ctx); err != nil {
		return nil, err
	}
	out, perShard := c.samples()
	if len(perShard) == 1 {
		distinct := serverOf(c.shards[0]).Store().DistinctServers()
		return append(out, metrics.Sample{Def: metrics.DistinctServers, Value: float64(distinct)}), nil
	}
	hosts := make(map[string]struct{})
	for i, e := range c.shards {
		for _, h := range serverOf(e).Store().Hosts() {
			hosts[h] = struct{}{}
		}
		for _, s := range perShard[i] {
			switch s.Def {
			case metrics.ClicksStored, metrics.UsersWithFrontends, metrics.PendingRecommendations:
				out = append(out, metrics.Sample{Def: s.Def, Label: metrics.Shard(i), Value: s.Value})
			}
		}
	}
	return append(out, metrics.Sample{Def: metrics.DistinctServers, Value: float64(len(hosts))}), nil
}

// Stats implements Deployment: the flat view of Samples.
func (c *Centralized) Stats(ctx context.Context) (Stats, error) {
	return flatStats(c.Samples(ctx))
}

// RunPipeline performs one periodic crawl/analysis round (the paper's
// nightly batch) on every shard concurrently: crawl queued URLs, flag
// ad/spam/multimedia servers, grow the corpus, and queue new
// recommendations. The returned stats sum across shards.
func (c *Centralized) RunPipeline(now time.Time) PipelineStats {
	results, _ := fanOut(len(c.shards), func(i int) (core.PipelineStats, error) {
		return serverOf(c.shards[i]).RunPipeline(now), nil
	})
	var total PipelineStats
	for _, s := range results {
		total.Crawled += s.Crawled
		total.CrawlErrors += s.CrawlErrors
		total.FeedsDiscovered += s.FeedsDiscovered
		total.Recommendations += s.Recommendations
		total.FlaggedServers += s.FlaggedServers
	}
	return total
}

// ClickItem simulates the user opening a sidebar item: positive feedback
// fires and the click re-enters the attention stream (closed loop).
func (c *Centralized) ClickItem(ctx context.Context, user string, itemID int64, now time.Time) (string, bool) {
	bar, ok := c.shard(user).sidebar(user)
	if !ok {
		return "", false
	}
	link, ok := bar.Click(itemID, now)
	if !ok {
		return "", false
	}
	if link != "" {
		_, _ = c.IngestClicks(ctx, []Click{{User: user, URL: link, At: now, FromEvent: true}})
	}
	return link, true
}

// ExpireSidebar expires items older than the sidebar TTL, firing negative
// feedback for each.
func (c *Centralized) ExpireSidebar(user string, now time.Time) int {
	bar, ok := c.shard(user).sidebar(user)
	if !ok {
		return 0
	}
	return bar.Expire(now)
}

// SidebarStats reports a user's lifetime sidebar counters.
func (c *Centralized) SidebarStats(user string) (shown, clicked, deleted, expired int64) {
	bar, ok := c.shard(user).sidebar(user)
	if !ok {
		return 0, 0, 0, 0
	}
	return bar.Stats()
}

// FlaggedServers reports how many distinct servers carry the named flag
// ("ad", "spam", "multimedia", "crawled") across all shards. A host two
// shards both classified counts once.
func (c *Centralized) FlaggedServers(flag string) int {
	f := storeFlag(flag)
	if len(c.shards) == 1 {
		return serverOf(c.shards[0]).Store().CountFlagged(f)
	}
	hosts := make(map[string]struct{})
	for _, e := range c.shards {
		for _, h := range serverOf(e).Store().FlaggedHosts(f) {
			hosts[h] = struct{}{}
		}
	}
	return len(hosts)
}
