// Package frontend implements the subscription frontend and sidebar of the
// Reef architecture (paper §2.2, §3.1): it executes subscribe/unsubscribe
// recommendations against the pub-sub substrate and the WAIF proxy,
// receives arriving events, and displays them in a sidebar where the user
// may click an event (producing closed-loop attention), delete it, or
// ignore it until it expires.
package frontend

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"reef/internal/eventalg"
	"reef/internal/pubsub"
	"reef/internal/recommend"
)

// SidebarItem is one displayed event.
type SidebarItem struct {
	// ID is the sidebar-local identifier.
	ID int64
	// Title is the displayed headline.
	Title string
	// Link is opened on click.
	Link string
	// FeedURL ties the item to its subscription for feedback routing.
	FeedURL string
	// Shown is when the item appeared.
	Shown time.Time
	// Event is the underlying pub-sub event.
	Event pubsub.Event
}

// Disposition records how an item left the sidebar.
type Disposition int

// Dispositions.
const (
	// DispositionClicked marks items the user opened.
	DispositionClicked Disposition = iota + 1
	// DispositionDeleted marks items the user dismissed.
	DispositionDeleted
	// DispositionExpired marks items ignored until expiry.
	DispositionExpired
)

// FeedbackFunc receives the closed-loop signal when an item leaves the
// sidebar (clicked == positive).
type FeedbackFunc func(feedURL string, disposition Disposition, at time.Time)

// Config tunes a sidebar.
type Config struct {
	// Capacity bounds displayed items; adding beyond it expires the
	// oldest (default 20, roughly a browser sidebar's height).
	Capacity int
	// TTL expires ignored items (default 24h; "if the user ignores the
	// event for a certain period of time, it expires").
	TTL time.Duration
	// Feedback receives dispositions; may be nil.
	Feedback FeedbackFunc
}

// Sidebar is the event display panel. Safe for concurrent use.
type Sidebar struct {
	cfg Config

	mu      sync.Mutex
	nextID  int64
	items   []*SidebarItem
	shown   int64
	clicked int64
	deleted int64
	expired int64
}

// NewSidebar builds a sidebar.
func NewSidebar(cfg Config) *Sidebar {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 20
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 24 * time.Hour
	}
	return &Sidebar{cfg: cfg}
}

// Add displays an event and returns the item.
func (s *Sidebar) Add(ev pubsub.Event, now time.Time) *SidebarItem {
	s.mu.Lock()
	s.nextID++
	it := &SidebarItem{
		ID:      s.nextID,
		Title:   attrStr(ev, "title"),
		Link:    attrStr(ev, "link"),
		FeedURL: attrStr(ev, "feed"),
		Shown:   now,
		Event:   ev,
	}
	s.items = append(s.items, it)
	s.shown++
	var evicted []*SidebarItem
	for len(s.items) > s.cfg.Capacity {
		evicted = append(evicted, s.items[0])
		s.items = s.items[1:]
		s.expired++
	}
	s.mu.Unlock()
	for _, e := range evicted {
		s.feedback(e, DispositionExpired, now)
	}
	return it
}

func attrStr(ev pubsub.Event, name string) string {
	if v, ok := ev.Attrs[name]; ok && v.Kind() == eventalg.KindString {
		return v.Str()
	}
	return ""
}

// Items returns the displayed items, oldest first.
func (s *Sidebar) Items() []*SidebarItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*SidebarItem, len(s.items))
	copy(out, s.items)
	return out
}

// take removes an item by ID.
func (s *Sidebar) take(id int64) (*SidebarItem, bool) {
	for i, it := range s.items {
		if it.ID == id {
			s.items = append(s.items[:i], s.items[i+1:]...)
			return it, true
		}
	}
	return nil, false
}

// Click opens an item: it leaves the sidebar, the click URL is returned,
// and positive feedback fires.
func (s *Sidebar) Click(id int64, now time.Time) (string, bool) {
	s.mu.Lock()
	it, ok := s.take(id)
	if ok {
		s.clicked++
	}
	s.mu.Unlock()
	if !ok {
		return "", false
	}
	s.feedback(it, DispositionClicked, now)
	return it.Link, true
}

// Delete dismisses an item.
func (s *Sidebar) Delete(id int64, now time.Time) bool {
	s.mu.Lock()
	it, ok := s.take(id)
	if ok {
		s.deleted++
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	s.feedback(it, DispositionDeleted, now)
	return true
}

// Expire removes items older than TTL, firing negative feedback.
func (s *Sidebar) Expire(now time.Time) int {
	s.mu.Lock()
	var kept, gone []*SidebarItem
	for _, it := range s.items {
		if now.Sub(it.Shown) >= s.cfg.TTL {
			gone = append(gone, it)
		} else {
			kept = append(kept, it)
		}
	}
	s.items = kept
	s.expired += int64(len(gone))
	s.mu.Unlock()
	for _, it := range gone {
		s.feedback(it, DispositionExpired, now)
	}
	return len(gone)
}

func (s *Sidebar) feedback(it *SidebarItem, d Disposition, now time.Time) {
	if s.cfg.Feedback != nil {
		s.cfg.Feedback(it.FeedURL, d, now)
	}
}

// Stats reports lifetime counters.
func (s *Sidebar) Stats() (shown, clicked, deleted, expired int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shown, s.clicked, s.deleted, s.expired
}

// Subscriber abstracts the pub-sub subscription point (*pubsub.Node or
// *pubsub.Broker via an adapter).
type Subscriber interface {
	Subscribe(f eventalg.Filter, opts ...pubsub.SubOption) (*pubsub.Subscription, error)
}

// FeedProxy abstracts the WAIF proxy operations the frontend needs.
type FeedProxy interface {
	Subscribe(feedURL string, now time.Time) error
	Unsubscribe(feedURL string)
}

// ErrFrontendClosed is returned by Apply after Close.
var ErrFrontendClosed = errors.New("frontend: closed")

// activeSub is one placed subscription with its delivery pump.
type activeSub struct {
	rec  recommend.Recommendation
	sub  *pubsub.Subscription
	done chan struct{}
}

// Frontend executes recommendations: subscribe kinds place a pub-sub
// subscription (and register feeds with the WAIF proxy) and pump arriving
// events into the sidebar; unsubscribe kinds tear down. Safe for
// concurrent use.
type Frontend struct {
	user    string
	sub     Subscriber
	proxy   FeedProxy
	sidebar *Sidebar
	nowFn   func() time.Time

	mu     sync.Mutex
	closed bool
	active map[string]*activeSub // key: feed URL or filter canonical
	wg     sync.WaitGroup
}

// NewFrontend wires a frontend. nowFn supplies display timestamps
// (virtual time in experiments). proxy may be nil when only content
// queries are used.
func NewFrontend(user string, sub Subscriber, proxy FeedProxy, sidebar *Sidebar, nowFn func() time.Time) *Frontend {
	if nowFn == nil {
		nowFn = time.Now
	}
	return &Frontend{
		user:    user,
		sub:     sub,
		proxy:   proxy,
		sidebar: sidebar,
		nowFn:   nowFn,
		active:  make(map[string]*activeSub),
	}
}

// Sidebar returns the frontend's sidebar.
func (f *Frontend) Sidebar() *Sidebar { return f.sidebar }

// key derives the active-table key for a recommendation.
func key(rec recommend.Recommendation) string {
	if rec.FeedURL != "" {
		return "feed:" + rec.FeedURL
	}
	return "filter:" + rec.Filter.Canonical()
}

// Apply executes one recommendation. Duplicate subscribes and unknown
// unsubscribes are no-ops (the server may re-send).
func (f *Frontend) Apply(rec recommend.Recommendation) error {
	return f.ApplyTapped(rec, nil)
}

// ApplyTapped is Apply for a subscription whose events must also reach tap
// (pubsub.WithTap: synchronously, on the publisher's goroutine, whatever
// becomes of the sidebar's bounded queue). A duplicate subscribe attaches
// the tap to the subscription already placed, which is how a best-effort
// subscription is upgraded in place. A nil tap is plain Apply.
func (f *Frontend) ApplyTapped(rec recommend.Recommendation, tap func(pubsub.Event)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFrontendClosed
	}
	switch rec.Kind {
	case recommend.KindSubscribeFeed, recommend.KindContentQuery:
		k := key(rec)
		if as, dup := f.active[k]; dup {
			if tap != nil {
				as.sub.SetTap(tap)
			}
			return nil
		}
		sub, err := f.sub.Subscribe(rec.Filter, pubsub.WithTap(tap))
		if err != nil {
			return fmt.Errorf("frontend: subscribing for %s: %w", f.user, err)
		}
		if rec.FeedURL != "" && f.proxy != nil {
			if err := f.proxy.Subscribe(rec.FeedURL, rec.At); err != nil {
				sub.Cancel()
				return fmt.Errorf("frontend: proxy subscribe %s: %w", rec.FeedURL, err)
			}
		}
		as := &activeSub{rec: rec, sub: sub, done: make(chan struct{})}
		f.active[k] = as
		f.wg.Add(1)
		go f.pump(as)
		return nil
	case recommend.KindUnsubscribeFeed:
		k := key(rec)
		as, ok := f.active[k]
		if !ok {
			return nil
		}
		delete(f.active, k)
		f.teardownLocked(as)
		return nil
	default:
		return fmt.Errorf("frontend: unknown recommendation kind %v", rec.Kind)
	}
}

// teardownLocked cancels one active subscription (caller holds f.mu).
func (f *Frontend) teardownLocked(as *activeSub) {
	as.sub.Cancel()
	if as.rec.FeedURL != "" && f.proxy != nil {
		f.proxy.Unsubscribe(as.rec.FeedURL)
	}
}

// pump moves delivered events into the sidebar until the subscription
// channel closes.
func (f *Frontend) pump(as *activeSub) {
	defer f.wg.Done()
	defer close(as.done)
	for ev := range as.sub.Events() {
		f.sidebar.Add(ev, f.nowFn())
	}
}

// Active returns the recommendation behind each live subscription, sorted
// by the same key as ActiveSubscriptions. It is the structured counterpart
// used by the public API's subscription listing.
func (f *Frontend) Active() []recommend.Recommendation {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.active))
	for k := range f.active {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]recommend.Recommendation, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.active[k].rec)
	}
	return out
}

// ActiveSubscriptions lists the keys of live subscriptions, sorted.
func (f *Frontend) ActiveSubscriptions() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.active))
	for k := range f.active {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Close tears down every subscription and waits for pumps to drain.
func (f *Frontend) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	for k, as := range f.active {
		delete(f.active, k)
		f.teardownLocked(as)
	}
	f.mu.Unlock()
	f.wg.Wait()
}
