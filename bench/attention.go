package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reef"
	"reef/internal/topics"
	"reef/internal/websim"
	clickgen "reef/internal/workload"
)

// The attention workload is the paper's loop on the path topology: clicks
// go in through the router, every node crawls and recommends, every user
// accepts what was recommended, and then events on the accepted feeds reach
// those users. The first three steps are a fixed amount of work done as
// fast as the stack takes it (closed loop); the last is the same open-loop
// phase the other workloads run, now with a big click store behind every
// call.

// attentionSpec sizes the workload.
type attentionSpec struct {
	Users     int
	Days      int     // at the default run length
	WebScale  float64 // share of websim's default server counts
	Ingesters int     // closed-loop ingest workers
	Batch     int     // clicks per IngestClicks call
	load      loadSpec
}

func attentionParams() attentionSpec {
	return attentionSpec{
		Users: 100, Days: 10, WebScale: 0.2, Ingesters: 2, Batch: 64,
		load: loadSpec{OpenRate: 4000, OpenBatch: 32, ControlRate: 50, WarmSeconds: 1},
	}
}

// attentionInputs is everything generated from the seed.
type attentionInputs struct {
	web       *websim.Web
	webConfig websim.Config
	users     []string
	// days[d] holds day d's clicks of all users, cut into batches.
	days  [][][]reef.Click
	start time.Time
	total int
}

// webSeed generates the synthetic web. It is the same for every run: the web
// stands for the world the deployment lives in, and what a node holds after
// crawling it (page text, feeds, the corpus) varies by a quarter between
// webs, which would read as run-to-run noise in live_heap_mb and durable.recover_s.
// The users, their interests and every click come from the run's seed.
const webSeed = 2006

func newWebModel() *topics.Model { return topics.NewModel(webSeed, 16, 50, 80) }

func genAttention(seed int64, sp attentionSpec, days int) *attentionInputs {
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	model := newWebModel()
	wcfg := websim.DefaultConfig(webSeed, start)
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * sp.WebScale)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * sp.WebScale)
	wcfg.NumSpamServers = int(float64(wcfg.NumSpamServers) * sp.WebScale)
	in := &attentionInputs{web: websim.Generate(wcfg, model), webConfig: wcfg, start: start, days: make([][][]reef.Click, days)}
	gen := clickgen.NewGenerator(clickgen.DefaultConfigAdjusted(seed, start, sp.Users, days), in.web)
	for _, u := range gen.Users() {
		in.users = append(in.users, u.ID)
	}
	perDay := make([][]reef.Click, days)
	gen.GenerateAll(func(d clickgen.Day) {
		i := int(d.Date.Sub(start) / (24 * time.Hour))
		for _, c := range d.Clicks {
			perDay[i] = append(perDay[i], reef.Click{User: d.User, URL: c.URL, At: c.At, Referrer: c.Referrer})
		}
	})
	for i, clicks := range perDay {
		in.total += len(clicks)
		for len(clicks) > 0 {
			n := min(sp.Batch, len(clicks))
			in.days[i] = append(in.days[i], clicks[:n])
			clicks = clicks[n:]
		}
	}
	return in
}

func attentionFleet(web *websim.Web) fleetSpec {
	return fleetSpec{
		nodes: 3, replicas: 1, durable: true, queueSize: reliableQueueSize,
		fetcher: web, rest: true, stream: true, router: true,
	}
}

// attentionRun carries the closed-loop half's measurements.
type attentionRun struct {
	env *env
	in  *attentionInputs
	sp  attentionSpec
	tr  *tracer

	fail      failures
	attempted atomic.Int64

	ingestWall   time.Duration
	ingestCall   opTimes // client-side IngestClicks durations, units = clicks
	pipelineWall time.Duration
	rounds       []float64 // per node per day, milliseconds
	pipeline     reef.PipelineStats
	accept       opTimes // AcceptRecommendation durations
	accepted     map[string]map[string]bool
	recs         int
	// Ingest with tracing off (even days) and on (odd days), for the
	// tracing overhead.
	tracedClicks, untracedClicks int
	tracedWall, untracedWall     time.Duration
}

func (a *attentionRun) rateOff() float64 {
	if a.untracedWall == 0 {
		return 0
	}
	return float64(a.untracedClicks) / a.untracedWall.Seconds()
}

func (a *attentionRun) rateOn() float64 {
	if a.tracedWall == 0 {
		return 0
	}
	return float64(a.tracedClicks) / a.tracedWall.Seconds()
}

// ingestDay sends one day's batches from the ingest workers and returns the
// wall time it took.
func (a *attentionRun) ingestDay(batches [][]reef.Click) time.Duration {
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < a.sp.Ingesters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				b := batches[i]
				a.attempted.Add(int64(len(b)))
				t0 := time.Now()
				n, err := a.env.fleet.router.IngestClicks(ctx, b)
				t1 := time.Now()
				if err != nil {
					a.fail.add(int64(len(b)), "ingest: %v", err)
					continue
				}
				if n != len(b) {
					a.fail.add(int64(len(b)-n), "ingest took %d of %d clicks", n, len(b))
				}
				if a.tr.on() {
					a.ingestCall.add(t1.Sub(t0), len(b))
					a.tr.span("ingest", "reefcluster", "", ingestID(b), t0, t1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// pipelineDay runs one crawl/analysis round on every node at once, as each
// node's own ticker would.
func (a *attentionRun) pipelineDay(now time.Time) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, n := range a.env.fleet.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			st := n.dep.RunPipeline(now)
			d := time.Since(t0)
			mu.Lock()
			a.rounds = append(a.rounds, float64(d.Microseconds())/1e3)
			a.pipeline.Crawled += st.Crawled
			a.pipeline.CrawlErrors += st.CrawlErrors
			a.pipeline.FeedsDiscovered += st.FeedsDiscovered
			a.pipeline.Recommendations += st.Recommendations
			mu.Unlock()
		}()
	}
	wg.Wait()
	a.pipelineWall += time.Since(start)
}

// acceptDay has every user accept everything recommended to them.
func (a *attentionRun) acceptDay() {
	ctx := context.Background()
	router := a.env.fleet.router
	for _, user := range a.in.users {
		recs, err := router.Recommendations(ctx, user)
		if err != nil {
			a.fail.add(1, "recommendations for %s: %v", user, err)
			continue
		}
		for _, rec := range recs {
			a.attempted.Add(1)
			t0 := time.Now()
			if err := router.AcceptRecommendation(ctx, user, rec.ID); err != nil {
				a.fail.add(1, "accept %s for %s: %v", rec.ID, user, err)
				continue
			}
			a.accept.add(time.Since(t0), 1)
			a.recs++
			if rec.Kind == reef.KindSubscribeFeed {
				if a.accepted[user] == nil {
					a.accepted[user] = make(map[string]bool)
				}
				a.accepted[user][rec.FeedURL] = true
			}
		}
	}
}

// checkSubscriptions verifies that every accepted feed recommendation is
// now a listed subscription, and returns how many users follow each feed.
func (a *attentionRun) checkSubscriptions() map[string]int {
	ctx := context.Background()
	followers := make(map[string]int)
	for _, user := range a.in.users {
		subs, err := a.env.fleet.router.Subscriptions(ctx, user)
		if err != nil {
			a.fail.add(1, "subscriptions of %s: %v", user, err)
			continue
		}
		listed := make(map[string]bool, len(subs))
		for _, s := range subs {
			listed[s.FeedURL] = true
			if s.FeedURL != "" {
				followers[s.FeedURL]++
			}
		}
		for feed := range a.accepted[user] {
			if !listed[feed] {
				a.fail.add(1, "%s accepted %s but is not subscribed to it", user, feed)
			}
		}
	}
	return followers
}

// probeFollowers is how many followers the feeds the probes read should
// have. How many users end up following the most popular feed differs by
// half between seeds; feeds with about this many exist under every seed, so
// the fan-out of the events that are measured does not depend on the seed.
const probeFollowers = 12

// deliveryPlan builds the open-loop phase's plan over the feeds the users
// ended up following: half the events go to those feeds uniformly, half to
// the feeds of the three probes (one per node), which are the feeds whose
// follower count is nearest probeFollowers.
func deliveryPlan(seed int64, followers map[string]int, nodes, payload, churnUsers int) *plan {
	rng := rand.New(rand.NewSource(seed + 1))
	p := &plan{}
	for feed := range followers {
		p.Feeds = append(p.Feeds, feed)
	}
	off := func(feed string) int { return max(followers[feed]-probeFollowers, probeFollowers-followers[feed]) }
	sort.Slice(p.Feeds, func(i, j int) bool {
		if a, b := off(p.Feeds[i]), off(p.Feeds[j]); a != b {
			return a < b
		}
		return p.Feeds[i] < p.Feeds[j]
	})
	p.ChurnOn = make([]int, len(p.Feeds))
	for _, feed := range p.Feeds {
		p.Followers = append(p.Followers, followers[feed])
	}
	p.FanOut = append([]int(nil), p.Followers...)
	tag := fmt.Sprintf("%x", uint32(rng.Int63()))
	p.ControlFeed = fmt.Sprintf("http://feeds-%s.bench.test/f/control.xml", tag)
	for i := 0; i < nodes && i < len(p.Feeds); i++ {
		p.Probes = append(p.Probes, subSpec{probeUser(tag, i, nodes), i})
		p.FanOut[i]++
	}
	// Half the events go to the probes' feeds so that the probes get enough
	// samples; the rest spread over every followed feed.
	p.EventFeeds = make([]int32, eventRing)
	for i := range p.EventFeeds {
		if i%2 == 0 && len(p.Probes) > 0 {
			p.EventFeeds[i] = int32(rng.Intn(len(p.Probes)))
		} else {
			p.EventFeeds[i] = int32(rng.Intn(len(p.Feeds)))
		}
	}
	for c := 0; c < churnUsers; c++ {
		p.Churn = append(p.Churn, subSpec{fmt.Sprintf("c%s-%05d", tag, c), -1})
	}
	p.Filler = make([]byte, payload)
	for i := range p.Filler {
		p.Filler[i] = byte('a' + rng.Intn(26))
	}
	return p
}

func runAttention(rc runConfig) (*result, error) {
	sp := attentionParams()
	days := max(2, int(float64(sp.Days)*rc.seconds/defaultSeconds+0.5))
	if rc.quick {
		sp.Users, sp.WebScale, days = 20, 0.05, 2
		sp.load.OpenRate, sp.load.WarmSeconds = 1000, 0.1
	}
	openDur := time.Duration(rc.seconds / 2 * float64(time.Second))
	res := newResult("attention", rc)
	sw := newStopwatch()
	in := genAttention(rc.seed, sp, days)
	sw.lap("generate")

	fs := attentionFleet(in.web)
	wcfg := in.webConfig
	var tr *tracer
	if rc.traced {
		tr = newTracer(fs.nodes, int(sp.load.OpenRate*openDur.Seconds())+sp.load.OpenBatch)
	}
	setups := &setupTimer{setup: func() (*env, error) {
		// A node generates the web it crawls when it starts, as reefd does;
		// here the three nodes share one.
		fs.fetcher = websim.Generate(wcfg, newWebModel())
		f, err := startFleet(rc.base, fs, tr)
		if err != nil {
			return nil, err
		}
		e, _ := wireRouter(f)
		// First operation: one click through the router lands on its owner.
		first := []reef.Click{{User: in.users[0], URL: in.days[0][0][0].URL, At: in.start.Add(-time.Hour)}}
		if n, err := f.router.IngestClicks(context.Background(), first); err != nil || n != 1 {
			e.stop()
			return nil, fmt.Errorf("first click: n=%d err=%v", n, err)
		}
		return e, nil
	}}
	e, err := setups.next()
	if err != nil {
		return nil, err
	}
	defer e.stop()
	sw.lap("set-up")
	if tr != nil {
		tr.recording.Store(true)
	}

	a := &attentionRun{env: e, in: in, sp: sp, tr: tr, accepted: make(map[string]map[string]bool)}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for d, batches := range in.days {
		clicks := 0
		for _, b := range batches {
			clicks += len(b)
		}
		if tr != nil {
			tr.recording.Store(d%2 == 1)
		}
		wall := a.ingestDay(batches)
		a.ingestWall += wall
		if d%2 == 1 {
			a.tracedClicks, a.tracedWall = a.tracedClicks+clicks, a.tracedWall+wall
		} else {
			a.untracedClicks, a.untracedWall = a.untracedClicks+clicks, a.untracedWall+wall
		}
		if tr != nil {
			tr.recording.Store(true)
		}
		now := in.start.Add(time.Duration(d+1) * 24 * time.Hour)
		a.pipelineDay(now)
		a.acceptDay()
	}
	sw.lap("ingest/crawl/accept")
	res.set("throughput_per_s", float64(in.total)/a.ingestWall.Seconds(), "1/s", in.total)
	if a.recs == 0 {
		a.fail.add(1, "no recommendation was made from %d clicks", in.total)
	}
	followers := a.checkSubscriptions()
	if len(followers) == 0 {
		return nil, fmt.Errorf("attention: no user follows any feed after %d days; nothing to deliver to", days)
	}
	if _, err := e.fleet.drainReplication(drainTimeout); err != nil {
		return nil, err
	}

	// The open-loop phase: events on the followed feeds.
	p := deliveryPlan(rc.seed, followers, fs.nodes, 1024-headerLen, 64)
	if err := loadSubscriptions(e, p); err != nil {
		return nil, err
	}
	if err := firstOperation(e, p); err != nil {
		return nil, err
	}
	r := newPSRun(e, p, sp.load, tr)
	rc.partial.attach(res, r)
	r.measure(func() {
		r.runOpen(tagWarm, time.Duration(sp.load.WarmSeconds*float64(time.Second)))
		r.runOpen(tagOpen, openDur)
	})
	sw.lap("deliver")
	res.Attempted, res.Failed, res.failures = a.attempted.Load(), a.fail.n, a.fail.first
	err = r.conclude(res, rc, sw, &before, func(lay *layerInputs) {
		lay.ops += a.attempted.Load()
		lay.att, lay.web = a, in.web
	})
	if err != nil {
		return nil, err
	}
	e.stop()
	if tr != nil {
		tr.recording.Store(false)
	}
	if err := setups.finish(res, sw); err != nil {
		return nil, err
	}
	return res, nil
}
