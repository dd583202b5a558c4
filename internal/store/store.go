// Package store is the click database of the centralized Reef server (the
// paper's MySQL substitute, see DESIGN.md §2): an in-memory store of
// attention clicks with the per-server aggregates the analysis pipeline
// needs, and a server-flag table recording crawl classifications (ad /
// spam / multimedia / crawled, §3.1).
package store

import (
	"sort"
	"strings"
	"sync"
	"time"

	"reef/internal/attention"
)

// Flag is a server classification bit (paper §3.1: the crawler "looks for
// ad servers and spam sites, as well as multimedia, and flags them as such
// in the database, ensuring they will not be crawled again").
type Flag int

// Server flags.
const (
	FlagAd Flag = 1 << iota
	FlagSpam
	FlagMultimedia
	FlagCrawled
)

// String names the flag set.
func (f Flag) String() string {
	names := ""
	add := func(s string) {
		if names != "" {
			names += "|"
		}
		names += s
	}
	if f&FlagAd != 0 {
		add("ad")
	}
	if f&FlagSpam != 0 {
		add("spam")
	}
	if f&FlagMultimedia != 0 {
		add("multimedia")
	}
	if f&FlagCrawled != 0 {
		add("crawled")
	}
	if names == "" {
		return "none"
	}
	return names
}

// ClickStore is the indexed click database. All methods are safe for
// concurrent use.
//
// Clicks are stored as columns in arrival order. Every user, URL,
// referrer and host string is stored once, in the intern table, and the
// columns and indexes hold its dense ID; a timestamp is its Unix seconds
// and nanoseconds plus an index into the zone table. Dump materialises
// attention.Click values again, so the columns are invisible outside.
type ClickStore struct {
	mu sync.RWMutex
	// strs is the intern table; ids maps each string to its index.
	strs []string
	ids  map[string]uint32
	// The click columns.
	user, url, ref []uint32
	sec            []int64
	nsec           []int32
	zone           []uint16
	fromEvent      []bool
	// zones holds each distinct (name, offset) zone once, keyed by value:
	// JSON decoding allocates a fresh *time.Location per timestamp whose
	// offset is not a whole hour.
	zones  []*time.Location
	zoneID map[zoneKey]uint16
	// serverHits counts clicks per server host ID.
	serverHits map[uint32]int
	// serverUsers tracks which user IDs visited each server host ID.
	serverUsers map[uint32]map[uint32]struct{}
	// flags per server host.
	flags map[string]Flag
}

type zoneKey struct {
	name   string
	offset int
}

// NewClickStore returns an empty store.
func NewClickStore() *ClickStore {
	return &ClickStore{
		ids:         make(map[string]uint32),
		zones:       []*time.Location{time.UTC},
		zoneID:      map[zoneKey]uint16{{"UTC", 0}: 0},
		serverHits:  make(map[uint32]int),
		serverUsers: make(map[uint32]map[uint32]struct{}),
		flags:       make(map[string]Flag),
	}
}

// intern returns str's ID, adding a private copy of it on first sight.
// The caller holds s.mu.
func (s *ClickStore) intern(str string) uint32 {
	id, ok := s.ids[str]
	if !ok {
		id = uint32(len(s.strs))
		str = strings.Clone(str)
		s.strs = append(s.strs, str)
		s.ids[str] = id
	}
	return id
}

// zoneOf returns the zone table index of t's zone. The caller holds s.mu.
func (s *ClickStore) zoneOf(t time.Time) uint16 {
	name, offset := t.Zone()
	k := zoneKey{name, offset}
	id, ok := s.zoneID[k]
	if !ok {
		id = uint16(len(s.zones))
		s.zones = append(s.zones, time.FixedZone(name, offset))
		s.zoneID[k] = id
	}
	return id
}

// AddBatch stores a batch and returns it with every User, URL and
// Referrer replaced by the store's interned copy, so callers that keep
// click strings share the store's. The caller's slice is not written.
func (s *ClickStore) AddBatch(batch []attention.Click) []attention.Click {
	out := make([]attention.Click, len(batch))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range batch {
		user, url, ref := s.intern(c.User), s.intern(c.URL), s.intern(c.Referrer)
		s.user = append(s.user, user)
		s.url = append(s.url, url)
		s.ref = append(s.ref, ref)
		s.sec = append(s.sec, c.At.Unix())
		s.nsec = append(s.nsec, int32(c.At.Nanosecond()))
		s.zone = append(s.zone, s.zoneOf(c.At))
		s.fromEvent = append(s.fromEvent, c.FromEvent)
		c.User, c.URL, c.Referrer = s.strs[user], s.strs[url], s.strs[ref]
		out[i] = c
		if host := c.Host(); host != "" {
			h := s.intern(host)
			s.serverHits[h]++
			users := s.serverUsers[h]
			if users == nil {
				users = make(map[uint32]struct{})
				s.serverUsers[h] = users
			}
			users[user] = struct{}{}
		}
	}
	return out
}

// Len returns the total click count.
func (s *ClickStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.user)
}

// ServerCount is a per-server aggregate row.
type ServerCount struct {
	Host  string
	Hits  int
	Users int
}

// Servers returns per-server hit counts, descending by hits then host.
func (s *ClickStore) Servers() []ServerCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ServerCount, 0, len(s.serverHits))
	for h, n := range s.serverHits {
		out = append(out, ServerCount{Host: s.strs[h], Hits: n, Users: len(s.serverUsers[h])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Host < out[j].Host
	})
	return out
}

// DistinctServers returns the number of distinct hosts seen.
func (s *ClickStore) DistinctServers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.serverHits)
}

// HitsTo returns the number of clicks to servers for which pred returns
// true.
func (s *ClickStore) HitsTo(pred func(host string) bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for h, hits := range s.serverHits {
		if pred(s.strs[h]) {
			n += hits
		}
	}
	return n
}

// SetFlag ors the flag onto a host's classification.
func (s *ClickStore) SetFlag(host string, f Flag) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flags[host] |= f
}

// HasFlag reports whether the host carries the flag.
func (s *ClickStore) HasFlag(host string, f Flag) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flags[host]&f != 0
}

// Flags returns the host's full flag set.
func (s *ClickStore) Flags(host string) Flag {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flags[host]
}

// Hosts returns every host with recorded clicks, unordered — the cheap
// accessor behind cross-store host dedup (Servers builds, fills and
// sorts full aggregate rows, which distinct-count callers discard).
func (s *ClickStore) Hosts() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.serverHits))
	for h := range s.serverHits {
		out = append(out, s.strs[h])
	}
	return out
}

// FlaggedHosts returns the hosts carrying the flag, unordered. Unlike
// Dump it copies no click data, so cross-store dedup (the sharded
// deployment's FlaggedServers) stays cheap.
func (s *ClickStore) FlaggedHosts(f Flag) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.flags))
	for h, fl := range s.flags {
		if fl&f != 0 {
			out = append(out, h)
		}
	}
	return out
}

// CountFlagged returns how many hosts carry the flag.
func (s *ClickStore) CountFlagged(f Flag) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, fl := range s.flags {
		if fl&f != 0 {
			n++
		}
	}
	return n
}

// Dump materialises the store's primary state — clicks in arrival order
// and the flag table — for the durability layer's snapshot capture. The
// indexes are derived and rebuilt by replaying the clicks.
func (s *ClickStore) Dump() ([]attention.Click, map[string]Flag) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	clicks := make([]attention.Click, len(s.user))
	for i := range clicks {
		clicks[i] = attention.Click{
			User:      s.strs[s.user[i]],
			URL:       s.strs[s.url[i]],
			At:        time.Unix(s.sec[i], int64(s.nsec[i])).In(s.zones[s.zone[i]]),
			Referrer:  s.strs[s.ref[i]],
			FromEvent: s.fromEvent[i],
		}
	}
	flags := make(map[string]Flag, len(s.flags))
	for h, f := range s.flags {
		flags[h] = f
	}
	return clicks, flags
}
