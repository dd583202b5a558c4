// Package recommend implements Reef's recommendation service (paper §2.2):
// it turns parsed attention data into subscribe/unsubscribe recommendations.
// Two recommenders mirror the paper's case studies — topic-based feed
// subscriptions from feeds discovered in browsing history (§3.2), and
// content-based queries built from the top-N offer-weight terms of the
// user's attention profile (§3.3) — plus the closed-loop feedback scorer
// that reads clicks on delivered events as positive signal and expiry as
// negative signal (§2.2).
package recommend

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"reef/internal/eventalg"
	"reef/internal/ir"
	"reef/internal/waif"
)

// Kind classifies a recommendation.
type Kind int

// Recommendation kinds.
const (
	// KindSubscribeFeed recommends placing a topic-based feed subscription.
	KindSubscribeFeed Kind = iota + 1
	// KindUnsubscribeFeed recommends removing one.
	KindUnsubscribeFeed
	// KindContentQuery recommends (re)placing the user's content-based
	// query subscription.
	KindContentQuery
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSubscribeFeed:
		return "subscribe-feed"
	case KindUnsubscribeFeed:
		return "unsubscribe-feed"
	case KindContentQuery:
		return "content-query"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Recommendation is one subscribe/unsubscribe action sent to a user's
// subscription frontend.
type Recommendation struct {
	Kind Kind
	User string
	// FeedURL is set for feed recommendations.
	FeedURL string
	// Filter is the pub-sub subscription to place (subscribe kinds).
	Filter eventalg.Filter
	// Terms carries the selected profile terms for content queries.
	Terms []ir.TermScore
	// Reason is a human-readable explanation (shown in the sidebar UI).
	Reason string
	// At is when the recommendation was issued.
	At time.Time
}

// TopicConfig tunes the topic-based recommender.
type TopicConfig struct {
	// MinHostVisits is how many times the user must have visited a feed's
	// host before the feed is recommended (default 1: the paper recommends
	// every feed discovered on visited pages).
	MinHostVisits int
	// InactiveAfter triggers unsubscribe recommendations for feeds whose
	// host the user stopped visiting and whose events draw no clicks
	// (default 21 days).
	InactiveAfter time.Duration
	// MinScore is the feedback score below which an inactive feed is
	// dropped (see ObserveFeedback; default 0).
	MinScore float64
}

// userFeedState tracks one (user, feed) pair.
type userFeedState struct {
	feedURL     string
	host        string
	recommended bool
	subscribed  bool
	score       float64
	lastSignal  time.Time
}

// hostVisits is a user's visit count to one host and the latest visit.
type hostVisits struct {
	n    int
	last time.Time
}

// UserState is the topic recommender's per-user state. It is made by the
// user's first visit or discovered feed and lives as long as the
// recommender, so a caller that feeds back many events for one user may
// hold it (see Lookup) instead of naming the user each time. It is
// guarded by whatever serializes the recommender.
type UserState struct {
	hosts map[string]hostVisits
	feeds map[string]*userFeedState
}

// TopicRecommender drives §3.2: feeds discovered in the user's browsing
// history become zero-click subscription recommendations. It is not safe
// for concurrent use; the Reef server serializes pipeline phases.
type TopicRecommender struct {
	cfg TopicConfig
	// users is never deleted from: a held *UserState stays the user's.
	users map[string]*UserState
}

// NewTopicRecommender builds a topic recommender.
func NewTopicRecommender(cfg TopicConfig) *TopicRecommender {
	if cfg.MinHostVisits <= 0 {
		cfg.MinHostVisits = 1
	}
	if cfg.InactiveAfter <= 0 {
		cfg.InactiveAfter = 21 * 24 * time.Hour
	}
	return &TopicRecommender{cfg: cfg, users: make(map[string]*UserState)}
}

// Lookup returns the user's state without making one: nil for a user the
// recommender has never seen.
func (tr *TopicRecommender) Lookup(user string) *UserState { return tr.users[user] }

func (tr *TopicRecommender) user(id string) *UserState {
	u, ok := tr.users[id]
	if !ok {
		u = &UserState{
			hosts: make(map[string]hostVisits),
			feeds: make(map[string]*userFeedState),
		}
		tr.users[id] = u
	}
	return u
}

// ObserveVisit records that the user visited a host at the given time.
func (tr *TopicRecommender) ObserveVisit(user, host string, at time.Time) {
	u := tr.user(user)
	h := u.hosts[host]
	h.n++
	if at.After(h.last) {
		h.last = at
	}
	u.hosts[host] = h
}

// ObserveFeed records a feed discovered on a page the user visited and
// returns a subscribe recommendation when the feed is new for this user
// and the visit threshold is met.
func (tr *TopicRecommender) ObserveFeed(user, feedURL, host string, at time.Time) (Recommendation, bool) {
	u := tr.user(user)
	st, ok := u.feeds[feedURL]
	if !ok {
		st = &userFeedState{feedURL: feedURL, host: host, lastSignal: at}
		u.feeds[feedURL] = st
	}
	if st.recommended {
		return Recommendation{}, false
	}
	visits := u.hosts[host].n
	if visits < tr.cfg.MinHostVisits {
		return Recommendation{}, false
	}
	st.recommended = true
	st.subscribed = true
	st.lastSignal = at
	return Recommendation{
		Kind:    KindSubscribeFeed,
		User:    user,
		FeedURL: feedURL,
		Filter:  waif.ItemFilter(feedURL),
		Reason:  fmt.Sprintf("feed discovered on %s after %d visits", host, visits),
		At:      at,
	}, true
}

// ObserveFeedback applies closed-loop feedback for a delivered event from
// a feed: a click is +1, an expiry (the user ignored the event until it
// disappeared) is -0.25. Feedback for a user or a feed the recommender
// does not track is a no-op, and makes no state.
func (tr *TopicRecommender) ObserveFeedback(user, feedURL string, clicked bool, at time.Time) {
	tr.Lookup(user).ObserveFeedback(feedURL, clicked, at)
}

// ObserveFeedback is TopicRecommender.ObserveFeedback for the state's
// user. A nil state is a user the recommender has never seen: it tracks no
// feed, so the call is a no-op.
func (u *UserState) ObserveFeedback(feedURL string, clicked bool, at time.Time) {
	if u == nil {
		return
	}
	st, ok := u.feeds[feedURL]
	if !ok {
		return
	}
	if clicked {
		st.score++
		st.lastSignal = at
	} else {
		st.score -= 0.25
	}
}

// SweepInactive issues unsubscribe recommendations for subscribed feeds
// with no recent positive signal — no host visits and no event clicks
// within InactiveAfter — whose score is at or below MinScore. They come
// sorted by user, then feed URL, so callers see one order whatever the
// map order.
func (tr *TopicRecommender) SweepInactive(now time.Time) []Recommendation {
	var out []Recommendation
	for user, u := range tr.users {
		for _, st := range u.feeds {
			if !st.subscribed {
				continue
			}
			lastVisit := u.hosts[st.host].last
			if st.lastSignal.After(lastVisit) {
				lastVisit = st.lastSignal
			}
			idle := now.Sub(lastVisit)
			if idle < tr.cfg.InactiveAfter {
				continue
			}
			// A positive score earns a grace period, but past twice the
			// inactivity window silence wins regardless of history.
			if st.score > tr.cfg.MinScore && idle < 2*tr.cfg.InactiveAfter {
				continue
			}
			st.subscribed = false
			out = append(out, Recommendation{
				Kind:    KindUnsubscribeFeed,
				User:    user,
				FeedURL: st.feedURL,
				Reason:  fmt.Sprintf("no attention signal since %s", lastVisit.Format("2006-01-02")),
				At:      now,
			})
		}
	}
	slices.SortFunc(out, func(a, b Recommendation) int {
		return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.FeedURL, b.FeedURL))
	})
	return out
}

// Recommended reports how many feeds have been recommended to the user so
// far (the paper's "one new feed recommendation per day" metric).
func (tr *TopicRecommender) Recommended(user string) int {
	u, ok := tr.users[user]
	if !ok {
		return 0
	}
	n := 0
	for _, st := range u.feeds {
		if st.recommended {
			n++
		}
	}
	return n
}

// Subscribed reports the user's currently subscribed feed count.
func (tr *TopicRecommender) Subscribed(user string) int {
	u, ok := tr.users[user]
	if !ok {
		return 0
	}
	n := 0
	for _, st := range u.feeds {
		if st.subscribed {
			n++
		}
	}
	return n
}
