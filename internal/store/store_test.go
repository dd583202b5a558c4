package store

import (
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"reef/internal/attention"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/internal/workload"
)

var base = time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC)

func click(user, url string, at time.Time) attention.Click {
	return attention.Click{User: user, URL: url, At: at}
}

func populated() *ClickStore {
	s := NewClickStore()
	s.AddBatch([]attention.Click{
		click("u1", "http://a.test/1", base),
		click("u1", "http://a.test/2", base.Add(time.Hour)),
		click("u1", "http://b.test/1", base.Add(2*time.Hour)),
		click("u2", "http://a.test/1", base.Add(3*time.Hour)),
	})
	return s
}

func TestClickStoreIndexes(t *testing.T) {
	s := populated()
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.DistinctServers(); got != 2 {
		t.Errorf("DistinctServers = %d", got)
	}
	hosts := s.Hosts()
	slices.Sort(hosts)
	if !slices.Equal(hosts, []string{"a.test", "b.test"}) {
		t.Errorf("Hosts = %v", hosts)
	}
}

func TestClickStoreServers(t *testing.T) {
	s := populated()
	servers := s.Servers()
	if len(servers) != 2 {
		t.Fatalf("Servers = %+v", servers)
	}
	if servers[0].Host != "a.test" || servers[0].Hits != 3 || servers[0].Users != 2 {
		t.Errorf("top server = %+v", servers[0])
	}
	if servers[1].Host != "b.test" || servers[1].Hits != 1 || servers[1].Users != 1 {
		t.Errorf("second server = %+v", servers[1])
	}
}

func TestHitsTo(t *testing.T) {
	s := populated()
	got := s.HitsTo(func(h string) bool { return strings.HasPrefix(h, "a.") })
	if got != 3 {
		t.Errorf("HitsTo = %d", got)
	}
}

func TestFlags(t *testing.T) {
	s := NewClickStore()
	s.SetFlag("ads.test", FlagAd)
	s.SetFlag("ads.test", FlagCrawled)
	if !s.HasFlag("ads.test", FlagAd) || !s.HasFlag("ads.test", FlagCrawled) {
		t.Error("flags not set")
	}
	if s.HasFlag("ads.test", FlagSpam) {
		t.Error("spurious flag")
	}
	if s.HasFlag("other.test", FlagAd) {
		t.Error("flag on unknown host")
	}
	if got := s.Flags("ads.test"); got != FlagAd|FlagCrawled {
		t.Errorf("Flags = %v", got)
	}
	if got := s.CountFlagged(FlagAd); got != 1 {
		t.Errorf("CountFlagged = %d", got)
	}
}

func TestFlagString(t *testing.T) {
	if got := (FlagAd | FlagSpam).String(); got != "ad|spam" {
		t.Errorf("String = %q", got)
	}
	if got := Flag(0).String(); got != "none" {
		t.Errorf("zero flag = %q", got)
	}
	if got := (FlagMultimedia | FlagCrawled).String(); got != "multimedia|crawled" {
		t.Errorf("String = %q", got)
	}
}

func TestAddBatch(t *testing.T) {
	s := NewClickStore()
	s.AddBatch([]attention.Click{
		click("u1", "http://a.test/", base),
		click("u2", "http://b.test/", base),
	})
	if s.Len() != 2 || s.DistinctServers() != 2 {
		t.Error("AddBatch failed")
	}
}

// decodeClicks decodes a JSON click array the way the REST and
// replication handlers do.
func decodeClicks(t testing.TB, js string) []attention.Click {
	t.Helper()
	var out []attention.Click
	if err := json.Unmarshal([]byte(js), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClickStoreRoundTrip pins what snapshots rely on: Dump returns the
// clicks AddBatch took, byte-identical as JSON, whatever their zone, and
// AddBatch leaves the caller's slice as it was.
func TestClickStoreRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		clicks []attention.Click
		hosts  int
	}{
		{"zero at", []attention.Click{{User: "u1", URL: "http://a.test/1"}}, 1},
		{"offsets decoded from JSON", decodeClicks(t, `[
			{"user":"u1","url":"http://a.test/1","at":"2006-02-01T10:00:00.123456789+02:00"},
			{"user":"u2","url":"https://b.test/2","at":"2006-02-01T10:00:00-07:00"},
			{"user":"u1","url":"http://a.test/1","at":"2006-02-01T10:00:01Z"}]`), 2},
		{"local", []attention.Click{click("u1", "http://a.test/1", base.Add(time.Nanosecond).In(time.Local))}, 1},
		{"from event", []attention.Click{{User: "u1", URL: "http://a.test/1", At: base, FromEvent: true}}, 1},
		{"referrer", []attention.Click{
			{User: "u1", URL: "http://a.test/1", At: base, Referrer: "http://b.test/"},
			{User: "u1", URL: "http://a.test/2", At: base, Referrer: ""},
		}, 1},
		{"no scheme", []attention.Click{click("u1", "a.test/1", base)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.clicks)
			s := NewClickStore()
			s.AddBatch(tc.clicks)
			if !reflect.DeepEqual(tc.clicks, in) {
				t.Fatalf("AddBatch wrote into the caller's batch:\n got %+v\nwant %+v", tc.clicks, in)
			}
			got, _ := s.Dump()
			want, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(want) {
				t.Errorf("Dump round trip:\n got %s\nwant %s", gotJSON, want)
			}
			for i := range got {
				if !got[i].At.Equal(in[i].At) {
					t.Errorf("click %d: At = %v, want %v", i, got[i].At, in[i].At)
				}
			}
			if n := s.DistinctServers(); n != tc.hosts {
				t.Errorf("DistinctServers = %d, want %d", n, tc.hosts)
			}
		})
	}
	// The zone table grows with the zones clicks carry, not with the
	// clicks: JSON decoding mints a fresh *time.Location for every
	// timestamp whose offset is not a whole hour (+05:45), and shares one
	// per whole-hour offset (+02:00).
	t.Run("one zone entry per offset", func(t *testing.T) {
		s := NewClickStore()
		before := len(s.zones)
		for _, off := range []string{"+02:00", "+05:45"} {
			var b strings.Builder
			b.WriteString("[")
			for i := 0; i < 1000; i++ {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(`{"user":"u1","url":"http://a.test/1","at":"2006-02-01T10:00:00` + off + `"}`)
			}
			b.WriteString("]")
			s.AddBatch(decodeClicks(t, b.String()))
			if got := len(s.zones) - before; got != 1 {
				t.Errorf("1000 clicks at %s added %d zone entries, want 1", off, got)
			}
			before = len(s.zones)
		}
	})
}

// TestClickStoreBytesPerClick bounds the live heap a stored click costs,
// on the clicks the attention benchmark ingests: a synthetic web at 0.2x
// the default server counts (seed 2006) browsed by 100 users for 5 days,
// each 64-click batch decoded from JSON into the store.
func TestClickStoreBytesPerClick(t *testing.T) {
	const maxBytesPerClick = 64
	batches, n := attentionBatches()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewClickStore()
	for _, b := range batches {
		var clicks []attention.Click
		if err := json.Unmarshal(b, &clicks); err != nil {
			t.Fatal(err)
		}
		s.AddBatch(clicks)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(batches)
	runtime.KeepAlive(s)

	if s.Len() != n {
		t.Fatalf("stored %d clicks, want %d", s.Len(), n)
	}
	perClick := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
	t.Logf("%d clicks, %d B/click", n, perClick)
	if perClick > maxBytesPerClick {
		t.Errorf("stored clicks cost %d B each, want <= %d", perClick, maxBytesPerClick)
	}
}

// attentionBatches generates the benchmark's attention clicks and returns
// them as JSON-encoded 64-click batches, plus the click count.
func attentionBatches() ([][]byte, int) {
	start := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	wcfg := websim.DefaultConfig(2006, start)
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * 0.2)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * 0.2)
	wcfg.NumSpamServers = int(float64(wcfg.NumSpamServers) * 0.2)
	web := websim.Generate(wcfg, topics.NewModel(2006, 16, 50, 80))
	gen := workload.NewGenerator(workload.DefaultConfigAdjusted(1, start, 100, 5), web)

	perDay := make(map[time.Time][]attention.Click)
	var days []time.Time
	gen.GenerateAll(func(d workload.Day) {
		if _, ok := perDay[d.Date]; !ok {
			days = append(days, d.Date)
		}
		for _, c := range d.Clicks {
			perDay[d.Date] = append(perDay[d.Date], attention.Click{User: d.User, URL: c.URL, At: c.At, Referrer: c.Referrer})
		}
	})
	var batches [][]byte
	n := 0
	for _, day := range days {
		for clicks := perDay[day]; len(clicks) > 0; {
			k := min(64, len(clicks))
			b, err := json.Marshal(clicks[:k])
			if err != nil {
				panic(err)
			}
			batches = append(batches, b)
			n += k
			clicks = clicks[k:]
		}
	}
	return batches, n
}

func TestConcurrentAccess(t *testing.T) {
	s := NewClickStore()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			s.AddBatch([]attention.Click{click("u1", "http://a.test/", base)})
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		s.Servers()
		s.Len()
		s.HasFlag("a.test", FlagAd)
	}
	<-done
	if s.Len() != 1000 {
		t.Errorf("Len = %d", s.Len())
	}
}
