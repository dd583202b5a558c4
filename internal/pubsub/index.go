package pubsub

import (
	"sync"

	"reef/internal/eventalg"
)

// Index is an access-predicate matcher for conjunctive filters (Fabret et
// al., SIGMOD 2001): each registered filter is filed under exactly one of
// its constraints, and an event only meets the filters filed under its own
// attribute values; their remaining constraints are verified on the hit.
// A filter with a string/bool equality is filed in the (attribute, value)
// hash bucket of its most selective one, so matching costs the sizes of
// the buckets the event names, not the size of the table. Filters with no
// such equality wait on a per-attribute scan list.
//
// Concurrency: Match, MatchAppend and MatchAttrs only read the index and
// are safe to call from any number of goroutines at once. Add and Remove
// mutate it and must be writer-exclusive — callers (Broker) hold a write
// lock around them and a read lock around matching.
type Index struct {
	nextID int64
	// entries maps entry ID to where the entry is filed.
	entries map[int64]*indexEntry
	// eq maps attribute -> value -> the bucket of that string/bool
	// equality. A bucket lives as long as any filter asks for the equality,
	// filed there or not.
	eq map[string]map[eventalg.Value]*eqBucket
	// scan maps attribute -> the entries with no hashable equality, filed
	// under their first constraint's attribute (every operator needs the
	// attribute present, so an event without it cannot match).
	scan map[string][]*indexEntry
	// matchAll holds the entries whose filter has no constraints.
	matchAll []*indexEntry
}

// eqBucket is one hashable equality: the entries filed under it, and how
// many constraints of live filters ask for it. The second number is what
// Add ranks selectivity by — an equality every filter shares is one every
// event satisfies.
type eqBucket struct {
	filed  []*indexEntry
	wanted int
}

// indexEntry is one registered filter. cs is the entry's own copy of the
// filter's constraints with the one it is filed under moved to cs[0]; a
// hashed entry's cs[0] is implied by the bucket it sits in, so a hit only
// verifies cs[1:]. pos is the entry's position in its bucket, which makes
// Remove a swap-delete.
type indexEntry struct {
	id     int64
	cs     []eventalg.Constraint
	hashed bool
	pos    int
}

// NewIndex returns an empty matcher index.
func NewIndex() *Index {
	return &Index{
		entries: make(map[int64]*indexEntry),
		eq:      make(map[string]map[eventalg.Value]*eqBucket),
		scan:    make(map[string][]*indexEntry),
	}
}

// Len returns the number of registered filters.
func (ix *Index) Len() int { return len(ix.entries) }

// hashable reports whether a value can key a hash bucket. Numeric equality
// stays on the scan path because Int(3) and Float(3) compare equal but hash
// differently.
func hashable(v eventalg.Value) bool {
	return v.Kind() == eventalg.KindString || v.Kind() == eventalg.KindBool
}

// hashedEq reports whether the constraint is an equality a bucket can hold.
func hashedEq(c eventalg.Constraint) bool {
	return c.Op == eventalg.OpEq && hashable(c.Val)
}

// Add registers a filter and returns its entry ID for later removal.
// Writer-exclusive.
//
// The access predicate is the filter's most selective hashable equality:
// the one the fewest live filters ask for, ties going to the later
// constraint. In a table of "type = feed-item and feed = X" filters that
// is always the feed, from the first subscriber on, so the bucket every
// event probes (type) stays empty and an event verifies its own feed's
// subscribers and nothing else.
func (ix *Index) Add(f eventalg.Filter) int64 {
	ix.nextID++
	e := &indexEntry{id: ix.nextID, cs: f.Constraints()}
	ix.entries[e.id] = e
	if len(e.cs) == 0 {
		e.pos = len(ix.matchAll)
		ix.matchAll = append(ix.matchAll, e)
		return e.id
	}
	var home *eqBucket
	access, fewest := 0, 0
	for i, c := range e.cs {
		if !hashedEq(c) {
			continue
		}
		m := ix.eq[c.Attr]
		if m == nil {
			m = make(map[eventalg.Value]*eqBucket)
			ix.eq[c.Attr] = m
		}
		b := m[c.Val]
		if b == nil {
			b = &eqBucket{}
			m[c.Val] = b
		}
		if home == nil || b.wanted <= fewest {
			home, access, fewest = b, i, b.wanted
		}
		b.wanted++
	}
	if home == nil {
		attr := e.cs[0].Attr
		e.pos = len(ix.scan[attr])
		ix.scan[attr] = append(ix.scan[attr], e)
		return e.id
	}
	e.hashed = true
	e.cs[0], e.cs[access] = e.cs[access], e.cs[0]
	e.pos = len(home.filed)
	home.filed = append(home.filed, e)
	return e.id
}

// Remove unregisters the entry in time proportional to its own
// constraints, whatever the size of the table. Removing an unknown ID is a
// no-op. Writer-exclusive.
func (ix *Index) Remove(id int64) {
	e, ok := ix.entries[id]
	if !ok {
		return
	}
	delete(ix.entries, id)
	switch {
	case len(e.cs) == 0:
		ix.matchAll = swapDelete(ix.matchAll, e.pos)
	case e.hashed:
		home := ix.eq[e.cs[0].Attr][e.cs[0].Val]
		home.filed = swapDelete(home.filed, e.pos)
		for _, c := range e.cs {
			if !hashedEq(c) {
				continue
			}
			m := ix.eq[c.Attr]
			if b := m[c.Val]; b.wanted > 1 {
				b.wanted--
			} else if len(m) > 1 {
				delete(m, c.Val)
			} else {
				delete(ix.eq, c.Attr)
			}
		}
	default:
		attr := e.cs[0].Attr
		if b := swapDelete(ix.scan[attr], e.pos); len(b) > 0 {
			ix.scan[attr] = b
		} else {
			delete(ix.scan, attr)
		}
	}
}

// swapDelete removes bucket[pos] by moving the last entry into its place.
func swapDelete(bucket []*indexEntry, pos int) []*indexEntry {
	last := len(bucket) - 1
	bucket[pos] = bucket[last]
	bucket[pos].pos = pos
	bucket[last] = nil
	return bucket[:last]
}

// Match returns the IDs of all filters the tuple satisfies. The returned
// slice is freshly allocated and may be retained by the caller. Safe for
// concurrent use with other Match/MatchAppend calls.
func (ix *Index) Match(t eventalg.Tuple) []int64 {
	return ix.MatchAppend(t, nil)
}

// tuplePairs pools the pair buffers MatchAppend sorts a tuple into.
var tuplePairs = sync.Pool{New: func() any { return new(eventalg.Attrs) }}

// MatchAppend is MatchAttrs on a tuple: it sorts the tuple into a pooled
// pair buffer, so with a reused dst it does not allocate either.
func (ix *Index) MatchAppend(t eventalg.Tuple, dst []int64) []int64 {
	p := tuplePairs.Get().(*eventalg.Attrs)
	a := t.AttrsInto(*p)
	dst = ix.MatchAttrs(a, dst)
	clear(a)
	*p = a[:0]
	tuplePairs.Put(p)
	return dst
}

// MatchAttrs appends the IDs of all filters the attribute set satisfies
// to dst and returns the extended slice; with a reused buffer (dst[:0])
// it does not allocate. Every entry is filed in one place, so no ID
// appears twice. Safe for concurrent use with other matches.
func (ix *Index) MatchAttrs(a eventalg.Attrs, dst []int64) []int64 {
	for _, e := range ix.matchAll {
		dst = append(dst, e.id)
	}
	for i := range a {
		attr, v := a[i].Name, a[i].Val
		if m := ix.eq[attr]; m != nil && hashable(v) {
			if b := m[v]; b != nil {
				dst = appendVerified(dst, b.filed, 1, a)
			}
		}
		dst = appendVerified(dst, ix.scan[attr], 0, a)
	}
	return dst
}

// appendVerified appends the IDs of the bucket's entries whose constraints
// from cs[skip:] on all hold for the attribute set.
func appendVerified(dst []int64, bucket []*indexEntry, skip int, a eventalg.Attrs) []int64 {
next:
	for _, e := range bucket {
		for _, c := range e.cs[skip:] {
			if !c.MatchAttrs(a) {
				continue next
			}
		}
		dst = append(dst, e.id)
	}
	return dst
}
