// Package frontend implements the subscription frontend and sidebar of the
// Reef architecture (paper §2.2, §3.1): it executes subscribe/unsubscribe
// recommendations against the pub-sub substrate and the WAIF proxy,
// receives arriving events, and displays them in a sidebar where the user
// may click an event (producing closed-loop attention), delete it, or
// ignore it until it expires.
//
// Display is synchronous: the frontend subscribes with a handler
// (pubsub.WithHandler), so a matched event is in the sidebar — and, for a
// reliable subscription, in its queue — when Publish returns. There is no
// goroutine and no queue per subscription; the sidebar, a ring that evicts
// its oldest item, is the only buffer. A ring slot holds the item's ID,
// when it was shown, its feed URL and the event's attributes — what the
// sidebar shows or feeds back, not the event's payload.
package frontend

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// slot is one displayed event as the ring stores it: what the sidebar
// shows or feeds back, and nothing else of the event. The feed is read
// from the event once, at Add, so an eviction reads only its slot; title
// and link are derived from the attributes when somebody asks.
type slot struct {
	id    int64
	shown time.Time
	feed  string
	attrs eventalg.Attrs
}

func (sl *slot) item() SidebarItem {
	return SidebarItem{
		ID:      sl.id,
		Title:   attrStr(sl.attrs, "title"),
		Link:    attrStr(sl.attrs, "link"),
		FeedURL: sl.feed,
		Shown:   sl.shown,
	}
}

// Sidebar is the event display panel. Safe for concurrent use. Add runs on
// the publisher's goroutine, so the items sit in a ring of Capacity slots
// (allocated at the first Add) and adding allocates nothing. A slot holds
// the item's ID, when it was shown, its feed URL and the event's
// attributes; the event's payload, source, publish time and ID are not
// kept, and an eviction reads only its slot.
type Sidebar struct {
	cfg Config

	mu      sync.Mutex
	nextID  int64
	ring    []slot
	head, n int // the n displayed items, oldest first, start at ring[head]
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

// at returns the i-th oldest displayed item.
func (s *Sidebar) at(i int) *slot { return &s.ring[(s.head+i)%len(s.ring)] }

// Add displays an event and returns the item's ID. A full sidebar expires
// its oldest item to make room.
func (s *Sidebar) Add(ev pubsub.Event, now time.Time) int64 {
	feed := attrStr(ev.Attrs, "feed")
	s.mu.Lock()
	if s.ring == nil {
		s.ring = make([]slot, s.cfg.Capacity)
	}
	full := s.n == len(s.ring)
	var evictedFeed string
	if full {
		evictedFeed = s.ring[s.head].feed
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.expired++
	}
	s.nextID++
	id := s.nextID
	*s.at(s.n) = slot{id: id, shown: now, feed: feed, attrs: ev.Attrs}
	s.n++
	s.shown++
	s.mu.Unlock()
	if full {
		s.feedback(evictedFeed, DispositionExpired, now)
	}
	return id
}

func attrStr(a eventalg.Attrs, name string) string {
	if v, ok := a.Get(name); ok && v.Kind() == eventalg.KindString {
		return v.Str()
	}
	return ""
}

// Items returns the displayed items, oldest first.
func (s *Sidebar) Items() []SidebarItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SidebarItem, s.n)
	for i := range out {
		out[i] = s.at(i).item()
	}
	return out
}

// removeIf takes every displayed item gone selects out of the ring,
// preserving the order of the rest, and returns them oldest first. Caller
// holds s.mu.
func (s *Sidebar) removeIf(gone func(*slot) bool) []SidebarItem {
	var out []SidebarItem
	w := 0
	for i := 0; i < s.n; i++ {
		sl := s.at(i)
		if gone(sl) {
			out = append(out, sl.item())
			continue
		}
		if w != i {
			*s.at(w) = *sl
		}
		w++
	}
	for i := w; i < s.n; i++ {
		*s.at(i) = slot{} // release the attributes
	}
	s.n = w
	return out
}

// take removes an item by ID, counting it in *counter, and fires feedback.
func (s *Sidebar) take(id int64, counter *int64, d Disposition, now time.Time) (SidebarItem, bool) {
	s.mu.Lock()
	gone := s.removeIf(func(sl *slot) bool { return sl.id == id })
	*counter += int64(len(gone))
	s.mu.Unlock()
	if len(gone) == 0 {
		return SidebarItem{}, false
	}
	s.feedback(gone[0].FeedURL, d, now)
	return gone[0], true
}

// Click opens an item: it leaves the sidebar, the click URL is returned,
// and positive feedback fires.
func (s *Sidebar) Click(id int64, now time.Time) (string, bool) {
	it, ok := s.take(id, &s.clicked, DispositionClicked, now)
	return it.Link, ok
}

// Delete dismisses an item.
func (s *Sidebar) Delete(id int64, now time.Time) bool {
	_, ok := s.take(id, &s.deleted, DispositionDeleted, now)
	return ok
}

// Expire removes items older than TTL, firing negative feedback.
func (s *Sidebar) Expire(now time.Time) int {
	s.mu.Lock()
	gone := s.removeIf(func(sl *slot) bool { return now.Sub(sl.shown) >= s.cfg.TTL })
	s.expired += int64(len(gone))
	s.mu.Unlock()
	for _, it := range gone {
		s.feedback(it.FeedURL, DispositionExpired, now)
	}
	return len(gone)
}

func (s *Sidebar) feedback(feedURL string, d Disposition, now time.Time) {
	if s.cfg.Feedback != nil {
		s.cfg.Feedback(feedURL, d, now)
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

// activeSub is one placed subscription.
type activeSub struct {
	rec recommend.Recommendation
	sub *pubsub.Subscription
	// tap, when set, is handed every matched event ahead of the sidebar
	// (see ApplyTapped). The handler reads it on the publisher's goroutine.
	tap atomic.Pointer[func(pubsub.Event)]
}

// Frontend executes recommendations: subscribe kinds place a pub-sub
// subscription (and register feeds with the WAIF proxy) whose handler
// displays arriving events in the sidebar; unsubscribe kinds tear down.
// Safe for concurrent use.
type Frontend struct {
	user    string
	sub     Subscriber
	proxy   FeedProxy
	sidebar *Sidebar
	nowFn   func() time.Time

	mu     sync.Mutex
	closed bool
	active map[string]*activeSub // key: feed URL or filter canonical
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

// ApplyTapped is Apply for a subscription whose events must also reach tap:
// the subscription's handler calls it first, then displays the event, both
// on the publisher's goroutine — so tap is bound by pubsub.WithHandler's
// rules. A duplicate subscribe attaches the tap to the subscription already
// placed, which is how a best-effort subscription is upgraded in place. A
// nil tap is plain Apply.
func (f *Frontend) ApplyTapped(rec recommend.Recommendation, tap func(pubsub.Event)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFrontendClosed
	}
	switch rec.Kind {
	case recommend.KindSubscribeFeed, recommend.KindContentQuery:
		k := key(rec)
		as, dup := f.active[k]
		if !dup {
			as = &activeSub{rec: rec}
		}
		if tap != nil {
			as.tap.Store(&tap)
		}
		if dup {
			return nil
		}
		sub, err := f.sub.Subscribe(rec.Filter, pubsub.WithHandler(func(ev pubsub.Event) {
			if tap := as.tap.Load(); tap != nil {
				(*tap)(ev)
			}
			f.sidebar.Add(ev, f.nowFn())
		}))
		if err != nil {
			return fmt.Errorf("frontend: subscribing for %s: %w", f.user, err)
		}
		if rec.FeedURL != "" && f.proxy != nil {
			if err := f.proxy.Subscribe(rec.FeedURL, rec.At); err != nil {
				sub.Cancel()
				return fmt.Errorf("frontend: proxy subscribe %s: %w", rec.FeedURL, err)
			}
		}
		as.sub = sub
		f.active[k] = as
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

// Close tears down every subscription; when it returns no event reaches the
// sidebar any more.
func (f *Frontend) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for k, as := range f.active {
		delete(f.active, k)
		f.teardownLocked(as)
	}
}
