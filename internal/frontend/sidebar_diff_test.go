package frontend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// modelSidebar is the slice sidebar the ring replaced, kept as the
// reference the ring is compared against.
type modelSidebar struct {
	capacity int
	ttl      time.Duration
	nextID   int64
	items    []SidebarItem
	stats    [4]int64 // shown, clicked, deleted, expired
	feedback []string
}

func (m *modelSidebar) leave(i int, d Disposition, counter int, now time.Time) SidebarItem {
	it := m.items[i]
	m.items = append(m.items[:i:i], m.items[i+1:]...)
	m.stats[counter]++
	m.feedback = append(m.feedback, fmt.Sprint(it.FeedURL, d, now.Unix()))
	return it
}

func (m *modelSidebar) add(title, feed string, now time.Time) int64 {
	m.nextID++
	m.items = append(m.items, SidebarItem{ID: m.nextID, Title: title, Link: feed + "/item", FeedURL: feed, Shown: now})
	m.stats[0]++
	if len(m.items) > m.capacity {
		m.leave(0, DispositionExpired, 3, now)
	}
	return m.nextID
}

func (m *modelSidebar) remove(id int64, d Disposition, counter int, now time.Time) (string, bool) {
	for i := range m.items {
		if m.items[i].ID == id {
			return m.leave(i, d, counter, now).Link, true
		}
	}
	return "", false
}

func (m *modelSidebar) expire(now time.Time) int {
	n := 0
	for i := 0; i < len(m.items); {
		if now.Sub(m.items[i].Shown) >= m.ttl {
			m.leave(i, DispositionExpired, 3, now)
			n++
		} else {
			i++
		}
	}
	return n
}

// TestSidebarMatchesSliceModel drives the ring and the slice model through
// the same seeded random Add/Click/Delete/Expire steps and compares what
// they display, count and feed back after every step.
func TestSidebarMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 20} {
		t.Run(fmt.Sprint("capacity", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			ttl := 10 * time.Minute
			m := &modelSidebar{capacity: capacity, ttl: ttl}
			var feedback []string
			s := NewSidebar(Config{Capacity: capacity, TTL: ttl, Feedback: func(feed string, d Disposition, at time.Time) {
				feedback = append(feedback, fmt.Sprint(feed, d, at.Unix()))
			}})
			now, checked := ft0, 0
			for step := 0; step < 5000; step++ {
				now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
				// IDs near the live range: mostly hits, some already gone or never issued.
				id := m.nextID - int64(rng.Intn(capacity+3)) + 1
				switch op := rng.Intn(10); {
				case op < 6:
					title := fmt.Sprint("story ", step)
					feed := fmt.Sprintf("http://h%d.test/f.xml", rng.Intn(4))
					// Shown is the caller's clock, which need not be monotonic.
					at := now.Add(-time.Duration(rng.Intn(300)) * time.Second)
					if got, want := s.Add(feedEvent(feed, title), at), m.add(title, feed, at); got != want {
						t.Fatalf("step %d: Add = %d, model %d", step, got, want)
					}
				case op < 8:
					link, ok := s.Click(id, now)
					if wantLink, wantOK := m.remove(id, DispositionClicked, 1, now); link != wantLink || ok != wantOK {
						t.Fatalf("step %d: Click(%d) = (%q, %v), model (%q, %v)", step, id, link, ok, wantLink, wantOK)
					}
				case op < 9:
					ok := s.Delete(id, now)
					if _, want := m.remove(id, DispositionDeleted, 2, now); ok != want {
						t.Fatalf("step %d: Delete(%d) = %v, model %v", step, id, ok, want)
					}
				default:
					if got, want := s.Expire(now), m.expire(now); got != want {
						t.Fatalf("step %d: Expire = %d, model %d", step, got, want)
					}
				}
				items := s.Items()
				if len(items) != len(m.items) || (len(items) > 0 && !reflect.DeepEqual(items, m.items)) {
					t.Fatalf("step %d: Items = %+v\nmodel %+v", step, items, m.items)
				}
				var stats [4]int64
				stats[0], stats[1], stats[2], stats[3] = s.Stats()
				if stats != m.stats {
					t.Fatalf("step %d: Stats = %v, model %v", step, stats, m.stats)
				}
				// Only what this step fed back is new; the rest was compared.
				if !reflect.DeepEqual(feedback[checked:], m.feedback[checked:]) {
					t.Fatalf("step %d: feedback diverged: ring %v\nmodel %v", step, feedback[checked:], m.feedback[checked:])
				}
				checked = len(feedback)
			}
			if m.stats[1] == 0 || m.stats[2] == 0 || m.stats[3] == 0 {
				t.Fatalf("model stats %v: some operation never took effect", m.stats)
			}
		})
	}
}
