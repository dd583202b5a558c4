package pubsub

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"reef/internal/eventalg"
)

func containsID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func TestIndexBasicMatch(t *testing.T) {
	ix := NewIndex()
	sports := ix.Add(eventalg.MustParse(`topic = sports`))
	hot := ix.Add(eventalg.MustParse(`topic = sports and hits > 10`))
	news := ix.Add(eventalg.MustParse(`topic = news`))

	got := ix.Match(eventalg.Tuple{"topic": eventalg.String("sports"), "hits": eventalg.Int(20)})
	if !containsID(got, sports) || !containsID(got, hot) {
		t.Errorf("Match missing expected ids: %v", got)
	}
	if containsID(got, news) {
		t.Errorf("Match included wrong id: %v", got)
	}

	got = ix.Match(eventalg.Tuple{"topic": eventalg.String("sports"), "hits": eventalg.Int(5)})
	if !containsID(got, sports) || containsID(got, hot) {
		t.Errorf("partial-match results wrong: %v", got)
	}
}

func TestIndexMatchAll(t *testing.T) {
	ix := NewIndex()
	all := ix.Add(eventalg.NewFilter())
	got := ix.Match(eventalg.Tuple{"anything": eventalg.Int(1)})
	if !containsID(got, all) {
		t.Error("empty filter did not match")
	}
	got = ix.Match(eventalg.Tuple{})
	if !containsID(got, all) {
		t.Error("empty filter did not match empty tuple")
	}
}

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	id := ix.Add(eventalg.MustParse(`topic = sports`))
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	ix.Remove(id)
	if ix.Len() != 0 {
		t.Fatalf("Len after Remove = %d", ix.Len())
	}
	got := ix.Match(eventalg.Tuple{"topic": eventalg.String("sports")})
	if len(got) != 0 {
		t.Errorf("removed filter still matches: %v", got)
	}
	ix.Remove(id) // idempotent
	ix.Remove(999)
}

func TestIndexNumericEqAcrossKinds(t *testing.T) {
	ix := NewIndex()
	id := ix.Add(eventalg.MustParse(`price = 3`))
	got := ix.Match(eventalg.Tuple{"price": eventalg.Float(3.0)})
	if !containsID(got, id) {
		t.Error("Int constraint did not match Float value of same magnitude")
	}
}

func TestIndexDuplicateConstraints(t *testing.T) {
	ix := NewIndex()
	f := eventalg.NewFilter(
		eventalg.C("x", eventalg.OpGt, eventalg.Int(1)),
		eventalg.C("x", eventalg.OpGt, eventalg.Int(1)),
	)
	id := ix.Add(f)
	got := ix.Match(eventalg.Tuple{"x": eventalg.Int(5)})
	if !containsID(got, id) {
		t.Error("duplicate-constraint filter did not match")
	}
}

func TestIndexMultiAttr(t *testing.T) {
	ix := NewIndex()
	id := ix.Add(eventalg.MustParse(`a = 1 and b = 2 and c = 3`))
	full := eventalg.Tuple{"a": eventalg.Int(1), "b": eventalg.Int(2), "c": eventalg.Int(3)}
	if got := ix.Match(full); !containsID(got, id) {
		t.Error("full tuple did not match")
	}
	partial := eventalg.Tuple{"a": eventalg.Int(1), "b": eventalg.Int(2)}
	if got := ix.Match(partial); containsID(got, id) {
		t.Error("partial tuple matched 3-constraint filter")
	}
}

// TestIndexAgainstBruteForce drives the index with a seeded random history
// of Add, Remove and Match and cross-checks every match against direct
// filter evaluation. The filters mix hashable equalities (string, bool),
// numeric equality across kinds (Int(3) vs Float(3)), range and string
// operators, Exists, the empty filter and two constraints on one
// attribute; once everything is removed no bucket may be left behind.
func TestIndexAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	attrs := []string{"a", "b", "c", "d"}
	words := []string{"x", "y", "z", "http://a", "http://b"}
	genVal := func() eventalg.Value {
		switch r.Intn(4) {
		case 0:
			return eventalg.Int(int64(r.Intn(5)))
		case 1:
			return eventalg.Float(float64(r.Intn(10)) / 2)
		case 2:
			return eventalg.String(words[r.Intn(len(words))])
		default:
			return eventalg.Bool(r.Intn(2) == 0)
		}
	}
	ops := []eventalg.Op{
		eventalg.OpEq, eventalg.OpEq, eventalg.OpEq, eventalg.OpNe, eventalg.OpLt, eventalg.OpGe,
		eventalg.OpPrefix, eventalg.OpContains, eventalg.OpExists,
	}
	genFilter := func() eventalg.Filter {
		n := r.Intn(4)
		cs := make([]eventalg.Constraint, 0, n+1)
		for i := 0; i < n; i++ {
			cs = append(cs, eventalg.Constraint{
				Attr: attrs[r.Intn(len(attrs))],
				Op:   ops[r.Intn(len(ops))],
				Val:  genVal(),
			})
		}
		if n > 0 && r.Intn(4) == 0 { // a second constraint on an attribute already used
			cs = append(cs, eventalg.C(cs[0].Attr, eventalg.OpEq, genVal()))
		}
		return eventalg.NewFilter(cs...)
	}

	ix := NewIndex()
	filters := make(map[int64]eventalg.Filter)
	var live []int64
	check := func() {
		tu := eventalg.Tuple{}
		for _, a := range attrs {
			if r.Intn(3) > 0 {
				tu[a] = genVal()
			}
		}
		got := make(map[int64]int)
		for _, id := range ix.Match(tu) {
			got[id]++
		}
		for id, f := range filters {
			want := 0
			if f.Match(tu) {
				want = 1
			}
			if got[id] != want {
				t.Fatalf("filter %s, tuple %v: index reported it %d times, brute force says %d",
					f, tu, got[id], want)
			}
		}
		if len(got) > len(filters) {
			t.Fatalf("index matched a removed entry: %v", got)
		}
	}
	for step := 0; step < 4000; step++ {
		switch op := r.Intn(10); {
		case op < 4:
			f := genFilter()
			id := ix.Add(f)
			filters[id] = f
			live = append(live, id)
		case op < 6 && len(live) > 0:
			i := r.Intn(len(live))
			ix.Remove(live[i])
			delete(filters, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			check()
		}
	}
	if ix.Len() != len(filters) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(filters))
	}
	for _, id := range live {
		ix.Remove(id)
	}
	if len(ix.entries)+len(ix.eq)+len(ix.scan)+len(ix.matchAll)+len(ix.groups) != 0 {
		t.Fatalf("index not empty after removing everything: %d entries, eq %v, scan %v, %d match-all, %d groups",
			len(ix.entries), ix.eq, ix.scan, len(ix.matchAll), len(ix.groups))
	}
}

// TestIndexBucketsDieWithTheirLastFilter: a bucket is kept for every
// equality some live filter asks for, filed there or not, and for no other.
func TestIndexBucketsDieWithTheirLastFilter(t *testing.T) {
	ix := NewIndex()
	a, b := ix.Add(itemFilter("http://a.test/feed.xml")), ix.Add(itemFilter("http://b.test/feed.xml"))
	if len(ix.eq["feed"]) != 2 || ix.eq["type"][eventalg.String("feed-item")].wanted != 2 {
		t.Fatalf("after two adds: eq = %v", ix.eq)
	}
	ix.Remove(a)
	if len(ix.eq["feed"]) != 1 || ix.eq["type"][eventalg.String("feed-item")].wanted != 1 {
		t.Fatalf("after one remove: eq = %v", ix.eq)
	}
	ix.Remove(b)
	if len(ix.eq) != 0 {
		t.Fatalf("after both removes: eq = %v", ix.eq)
	}
}

// itemFilter is waif.ItemFilter, which this package cannot import.
func itemFilter(feed string) eventalg.Filter {
	return eventalg.NewFilter(
		eventalg.C("type", eventalg.OpEq, eventalg.String("feed-item")),
		eventalg.C("feed", eventalg.OpEq, eventalg.String(feed)),
	)
}

// filed reports how many entries sit in the bucket of attr = val.
func (ix *Index) filed(attr, val string) int {
	if b := ix.eq[attr][eventalg.String(val)]; b != nil {
		return len(b.filed)
	}
	return 0
}

// TestIndexSkewBoundsBuckets pins what the access predicate buys on the
// table reef actually holds: 10 000 feed-item filters over Zipf-popular
// feeds. The bucket every event probes (type = feed-item) takes none of
// them, from the first subscriber on, and a feed's bucket holds one entry
// however many filters ask for it, so an event on any feed, hot or cold,
// verifies one filter and matches exactly its own fan-out.
func TestIndexSkewBoundsBuckets(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(r, 1.05, 50, 1999)
	ix := NewIndex()
	fanout := make(map[string]int)
	for i := 0; i < 10000; i++ {
		f := fmt.Sprintf("http://h%04d.test/feed.xml", zipf.Uint64())
		ix.Add(itemFilter(f))
		fanout[f]++
		if shared := ix.filed("type", "feed-item"); shared != 0 {
			t.Fatalf("after %d adds the type bucket holds %d entries, want none", i+1, shared)
		}
	}
	if len(ix.scan) != 0 || len(ix.matchAll) != 0 {
		t.Fatalf("feed-item filters left the hash path: scan %d, match-all %d", len(ix.scan), len(ix.matchAll))
	}
	hottest := 0
	for f, n := range fanout {
		hottest = max(hottest, n)
		if own := ix.filed("feed", f); own != 1 {
			t.Fatalf("bucket of %s holds %d entries for one distinct filter", f, own)
		}
		tu := eventalg.Tuple{"type": eventalg.String("feed-item"), "feed": eventalg.String(f), "title": eventalg.String("t")}
		if got := len(ix.Match(tu)); got != n {
			t.Fatalf("event on %s matched %d filters, want %d", f, got, n)
		}
	}
	t.Logf("%d feeds, hottest fan-out %d", len(fanout), hottest)
}

// TestIndexFilesUnderMostSelectiveEquality: the access predicate is the
// equality the fewest filters ask for, not the attribute with the most
// values — nine filters in ten want lang = en, so lang = en must not become
// the bucket that holds them.
func TestIndexFilesUnderMostSelectiveEquality(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 1000; i++ {
		lang := "en"
		if i%10 == 0 {
			lang = fmt.Sprintf("l%02d", i%70) // more distinct langs than topics
		}
		ix.Add(eventalg.NewFilter(
			eventalg.C("topic", eventalg.OpEq, eventalg.String(fmt.Sprintf("t%d", i%5))),
			eventalg.C("lang", eventalg.OpEq, eventalg.String(lang)),
		))
	}
	if n := ix.filed("lang", "en"); n > 5 {
		t.Errorf("lang = en holds %d entries; the 900 filters that want it belong under their topic", n)
	}
	tu := eventalg.Tuple{"topic": eventalg.String("t1"), "lang": eventalg.String("en")}
	if got := len(ix.Match(tu)); got != 200 {
		t.Errorf("matched %d, want the 200 English t1 filters", got)
	}
}

// TestIndexAddRemoveIsConstantTime closes 30 000 subscriptions on one
// table; with a linear Remove this took seconds.
func TestIndexAddRemoveIsConstantTime(t *testing.T) {
	ix := NewIndex()
	start := time.Now()
	ids := make([]int64, 30000)
	for i := range ids {
		ids[i] = ix.Add(itemFilter(fmt.Sprintf("http://h%03d.test/feed.xml", i%500)))
	}
	for _, id := range ids {
		ix.Remove(id)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("30000 Add + 30000 Remove took %v, want < 1s", d)
	}
	if ix.Len() != 0 || len(ix.eq) != 0 {
		t.Errorf("index not empty: Len %d, eq %v", ix.Len(), ix.eq)
	}
}

// TestIndexGroupRemoveIsConstantTime closes 30 000 subscriptions to one
// filter, in random order: every one is a member of the same entry, and
// removing any of them must not cost the size of that entry.
func TestIndexGroupRemoveIsConstantTime(t *testing.T) {
	ix := NewIndex()
	f := itemFilter("http://hot.test/feed.xml")
	start := time.Now()
	ids := make([]int64, 30000)
	for i := range ids {
		ids[i] = ix.Add(f)
	}
	if n := ix.filed("feed", "http://hot.test/feed.xml"); n != 1 {
		t.Fatalf("30000 identical filters sit in %d entries, want 1", n)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		ix.Remove(id)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("30000 Add + 30000 Remove of one filter took %v, want < 1s", d)
	}
	if ix.Len() != 0 || len(ix.eq) != 0 {
		t.Errorf("index not empty: Len %d, eq %v", ix.Len(), ix.eq)
	}
}

// TestIndexDistinctAddIsConstantTime adds and removes 30 000 distinct
// range filters, first all on one attribute's scan list, then all filed
// in one hash bucket: Add must not compare a filter with every entry
// already there, which would take seconds here.
func TestIndexDistinctAddIsConstantTime(t *testing.T) {
	gt := func(i int) eventalg.Constraint { return eventalg.C("n", eventalg.OpGt, eventalg.Int(int64(i))) }
	typeX := eventalg.C("type", eventalg.OpEq, eventalg.String("x"))
	for _, tc := range []struct {
		name  string
		f     func(i int) eventalg.Filter
		where func(ix *Index) int
	}{
		{"scan list",
			func(i int) eventalg.Filter { return eventalg.NewFilter(gt(i)) },
			func(ix *Index) int { return len(ix.scan["n"]) }},
		{"hash bucket",
			func(i int) eventalg.Filter { return eventalg.NewFilter(typeX, gt(i)) },
			func(ix *Index) int { return ix.filed("type", "x") }},
	} {
		ix := NewIndex()
		start := time.Now()
		ids := make([]int64, 30000)
		for i := range ids {
			ids[i] = ix.Add(tc.f(i))
		}
		if n := tc.where(ix); n != len(ids) {
			t.Fatalf("%s: holds %d entries, want %d", tc.name, n, len(ids))
		}
		for _, id := range ids {
			ix.Remove(id)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: 30000 Add + 30000 Remove of distinct filters took %v, want < 1s", tc.name, d)
		}
		if ix.Len() != 0 || len(ix.scan)+len(ix.eq)+len(ix.groups) != 0 {
			t.Errorf("%s: index not empty: Len %d, scan %d, eq %d, groups %d",
				tc.name, ix.Len(), len(ix.scan), len(ix.eq), len(ix.groups))
		}
	}
}

// TestIndexGroupsAgainstBruteForce drives the index with a seeded history
// in which most filters are copies of a few, some with their constraints
// in another order, and removes random members of the groups they form.
// After every step each matched ID must appear exactly as often as brute
// force says (once or not at all), every ID must sit where its member
// record says, no hash bucket and not matchAll may hold two entries for
// the same constraints, a scan-list entry holds exactly one filter, and
// every hashed entry sits in the groups chain of its bucket and
// fingerprint. The history runs twice: with real fingerprints, and with
// every filter's fingerprint the same, so distinct filters share chains.
func TestIndexGroupsAgainstBruteForce(t *testing.T) {
	t.Run("fingerprints", checkGroupsAgainstBruteForce)
	t.Run("colliding", func(t *testing.T) {
		saved := fingerprint
		fingerprint = func(eventalg.Filter) uint64 { return 7 }
		defer func() { fingerprint = saved }()
		checkGroupsAgainstBruteForce(t)
	})
}

func checkGroupsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	str, num := eventalg.String, eventalg.Int
	pool := []eventalg.Filter{
		itemFilter("http://a.test/feed.xml"),
		itemFilter("http://b.test/feed.xml"),
		eventalg.NewFilter(eventalg.C("type", eventalg.OpEq, str("feed-item"))),
		eventalg.NewFilter(eventalg.C("feed", eventalg.OpEq, str("http://a.test/feed.xml")), eventalg.C("n", eventalg.OpGt, num(2))),
		eventalg.NewFilter(eventalg.C("n", eventalg.OpGt, num(2))),
		eventalg.NewFilter(eventalg.C("n", eventalg.OpLt, num(4)), eventalg.C("n", eventalg.OpGt, num(1))),
		eventalg.NewFilter(eventalg.C("n", eventalg.OpEq, num(3)), eventalg.C("n", eventalg.OpEq, num(3))),
		eventalg.NewFilter(eventalg.C("hot", eventalg.OpEq, eventalg.Bool(true)), eventalg.C("hot", eventalg.OpEq, eventalg.Bool(true))),
		eventalg.NewFilter(eventalg.C("hot", eventalg.OpEq, eventalg.Bool(true))),
		// The same set, not the same multiset: one entry for both would
		// uncount the wrong equalities when a member leaves.
		eventalg.NewFilter(eventalg.C("hot", eventalg.OpEq, eventalg.Bool(true)), eventalg.C("hot", eventalg.OpEq, eventalg.Bool(true)), eventalg.C("type", eventalg.OpEq, str("feed-item"))),
		eventalg.NewFilter(eventalg.C("hot", eventalg.OpEq, eventalg.Bool(true)), eventalg.C("type", eventalg.OpEq, str("feed-item")), eventalg.C("type", eventalg.OpEq, str("feed-item"))),
		eventalg.NewFilter(eventalg.Exists("feed")),
		eventalg.NewFilter(),
	}
	// shuffled is a copy of f with its constraints in a random order: the
	// same filter, which may or may not land in the same place.
	shuffled := func(f eventalg.Filter) eventalg.Filter {
		cs := f.Constraints()
		r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		return eventalg.NewFilter(cs...)
	}
	feeds := []string{"http://a.test/feed.xml", "http://b.test/feed.xml", "http://c.test/feed.xml"}
	tuple := func() eventalg.Tuple {
		tu := eventalg.Tuple{}
		if r.Intn(4) > 0 {
			tu["type"] = str("feed-item")
		}
		if r.Intn(4) > 0 {
			tu["feed"] = str(feeds[r.Intn(len(feeds))])
		}
		if r.Intn(2) == 0 {
			tu["n"] = num(int64(r.Intn(6)))
		}
		if r.Intn(2) == 0 {
			tu["hot"] = eventalg.Bool(r.Intn(2) == 0)
		}
		return tu
	}
	key := func(cs []eventalg.Constraint) string {
		parts := make([]string, len(cs))
		for i, c := range cs {
			parts[i] = fmt.Sprintf("%#v", c)
		}
		sort.Strings(parts)
		return strings.Join(parts, "|")
	}
	sameMultiset := func(a, b []eventalg.Constraint) bool { return key(a) == key(b) }
	checkPlaces := func(step int, where string, list []*indexEntry, grouped bool) {
		for i, e := range list {
			if e.pos != i || len(e.ids) == 0 || !grouped && len(e.ids) != 1 {
				t.Fatalf("step %d: %s entry %d: pos %d, %d members", step, where, i, e.pos, len(e.ids))
			}
			for _, o := range list[:i] {
				if !grouped {
					break
				}
				if sameMultiset(o.cs, e.cs) {
					t.Fatalf("step %d: %s holds two entries for %v", step, where, e.cs)
				}
			}
		}
	}

	ix := NewIndex()
	filters := make(map[int64]eventalg.Filter)
	var live []int64
	for step := 0; step < 6000; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			f := pool[r.Intn(len(pool))]
			if r.Intn(3) == 0 {
				f = shuffled(f)
			}
			id := ix.Add(f)
			filters[id] = f
			live = append(live, id)
		case op < 8 && len(live) > 0:
			i := r.Intn(len(live))
			ix.Remove(live[i])
			delete(filters, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			tu := tuple()
			got := make(map[int64]int)
			for _, id := range ix.Match(tu) {
				got[id]++
			}
			for id, f := range filters {
				want := 0
				if f.Match(tu) {
					want = 1
				}
				if got[id] != want {
					t.Fatalf("step %d: filter %s, tuple %v: index reported it %d times, brute force says %d",
						step, f, tu, got[id], want)
				}
			}
			if len(got) > len(filters) {
				t.Fatalf("step %d: index matched a removed ID: %v", step, got)
			}
		}
		if ix.Len() != len(filters) {
			t.Fatalf("step %d: Len = %d, want %d", step, ix.Len(), len(filters))
		}
		for id, m := range ix.entries {
			if m.pos >= len(m.e.ids) || m.e.ids[m.pos] != id {
				t.Fatalf("step %d: ID %d is not at position %d of its entry %v", step, id, m.pos, m.e.ids)
			}
		}
		checkPlaces(step, "match-all", ix.matchAll, true)
		for attr, list := range ix.scan {
			checkPlaces(step, "scan "+attr, list, false)
		}
		chained := 0
		for attr, m := range ix.eq {
			for v, b := range m {
				checkPlaces(step, fmt.Sprintf("bucket %s = %v", attr, v), b.filed, true)
				for _, e := range b.filed {
					in := false
					for c := ix.groups[groupKey{b: b, fp: e.fp}]; c != nil; c = c.next {
						in = in || c == e
					}
					if !in {
						t.Fatalf("step %d: entry %v of bucket %s = %v is not in its groups chain", step, e.cs, attr, v)
					}
				}
				chained += len(b.filed)
			}
		}
		for _, c := range ix.groups {
			for ; c != nil; c = c.next {
				chained--
			}
		}
		if chained != 0 {
			t.Fatalf("step %d: the groups chains and the buckets hold different numbers of entries (%d)", step, chained)
		}
	}
	if len(ix.eq["feed"]) == 0 {
		t.Fatal("the history never left a feed bucket standing; it tests nothing")
	}
	for _, id := range live {
		ix.Remove(id)
	}
	if len(ix.entries)+len(ix.eq)+len(ix.scan)+len(ix.matchAll)+len(ix.groups) != 0 {
		t.Fatalf("index not empty after removing everything: %d entries, eq %v, scan %v, %d match-all, %d groups",
			len(ix.entries), ix.eq, ix.scan, len(ix.matchAll), len(ix.groups))
	}
}

func BenchmarkIndexMatch1000(b *testing.B) {
	ix := NewIndex()
	topics := []string{"sports", "news", "tech", "finance", "music"}
	for i := 0; i < 1000; i++ {
		ix.Add(TopicFilter(topics[i%len(topics)]))
	}
	tu := eventalg.Tuple{"topic": eventalg.String("sports")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Match(tu)
	}
}
