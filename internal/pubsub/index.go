package pubsub

import (
	"hash/maphash"
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
// Filters with the same constraints that land in the same hash bucket (or
// in matchAll) share one entry there, which holds every member's ID
// (Carzaniga & Wolf, SIGCOMM 2003, merge identical predicates the same
// way): an event verifies each distinct filter once and appends all its
// subscribers. Reef's table is thousands of identical "type = feed-item
// and feed = X" filters, so a feed's bucket holds one entry however many
// users follow it. A scan-list entry holds one filter.
//
// Concurrency: Match, MatchAppend and MatchAttrs only read the index and
// are safe to call from any number of goroutines at once. Add and Remove
// mutate it and must be writer-exclusive — callers (Broker) hold a write
// lock around them and a read lock around matching.
type Index struct {
	nextID int64
	// entries maps a filter ID to its entry and its place among the
	// entry's members.
	entries map[int64]member
	// eq maps attribute -> value -> the bucket of that string/bool
	// equality. A bucket lives as long as any filter asks for the equality,
	// filed there or not.
	eq map[string]map[eventalg.Value]*eqBucket
	// scan maps attribute -> the entries with no hashable equality, filed
	// under their first constraint's attribute (every operator needs the
	// attribute present, so an event without it cannot match).
	scan map[string][]*indexEntry
	// matchAll holds the entry of the filters with no constraints: one at
	// most, since all of them are the same filter.
	matchAll []*indexEntry
	// groups finds the entry a hashed filter joins: it maps a bucket and a
	// constraint-set fingerprint to the bucket's entries with that
	// fingerprint, chained through next (almost always one).
	groups map[groupKey]*indexEntry
}

// groupKey is a hash bucket and the fingerprint of a constraint set.
type groupKey struct {
	b  *eqBucket
	fp uint64
}

// fingerprintSeed seeds the constraint hashes fingerprint sums.
var fingerprintSeed = maphash.MakeSeed()

// fingerprint hashes a filter's constraint multiset: the sum of its
// constraints' hashes, so order does not count and multiplicity does.
// A variable so a test can make every filter collide.
var fingerprint = func(f eventalg.Filter) uint64 {
	var fp uint64
	for i := 0; i < f.Len(); i++ {
		fp += f.At(i).Hash(fingerprintSeed)
	}
	return fp
}

// member is where one filter ID sits: its entry, and its position in the
// entry's ids, which makes Remove a swap-delete.
type member struct {
	e   *indexEntry
	pos int
}

// eqBucket is one hashable equality: the entries filed under it, and how
// many constraints of live filters ask for it. The second number is what
// Add ranks selectivity by — an equality every filter shares is one every
// event satisfies.
type eqBucket struct {
	filed  []*indexEntry
	wanted int
}

// indexEntry is one distinct filter and the IDs of the filters that are
// it (on a scan list, always one ID). cs is the entry's own copy of the
// constraints with the one it is filed under moved to cs[0]; a hashed
// entry's cs[0] is implied by the bucket it sits in, so a hit only
// verifies cs[1:]. pos is the entry's position in its bucket or list,
// which makes unfiling a swap-delete. one is the first member's slot, so
// an entry with one member takes no second allocation. A hashed entry
// also carries its fingerprint and its link in the groups chain.
type indexEntry struct {
	cs     []eventalg.Constraint
	ids    []int64
	hashed bool
	pos    int
	one    [1]int64
	fp     uint64
	next   *indexEntry
}

// NewIndex returns an empty matcher index.
func NewIndex() *Index {
	return &Index{
		entries: make(map[int64]member),
		eq:      make(map[string]map[eventalg.Value]*eqBucket),
		scan:    make(map[string][]*indexEntry),
		groups:  make(map[groupKey]*indexEntry),
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

// Add registers a filter and returns its ID for later removal.
// Writer-exclusive.
//
// The access predicate is the filter's most selective hashable equality:
// the one the fewest live filters ask for, ties going to the later
// constraint. In a table of "type = feed-item and feed = X" filters that
// is always the feed, from the first subscriber on, so the bucket every
// event probes (type) stays empty and an event verifies its own feed's
// entry and nothing else. A filter whose constraints an entry of its home
// bucket already holds joins that entry: Add finds it by the fingerprint
// of the constraint set and confirms it by comparing the sets, so joining
// costs the same however many distinct filters the bucket holds, and
// allocates nothing beyond the ID's slot. A filter on a scan list gets an
// entry of its own: a scan list holds filters with no selective equality,
// which are seldom copies of one another.
func (ix *Index) Add(f eventalg.Filter) int64 {
	ix.nextID++
	id := ix.nextID
	var e *indexEntry
	switch home, access := ix.home(f); {
	case f.Len() == 0:
		if len(ix.matchAll) == 0 {
			ix.matchAll = append(ix.matchAll, newEntry(f, 0, false, 0))
		}
		e = ix.matchAll[0]
	case home == nil:
		attr := f.At(0).Attr
		e = newEntry(f, 0, false, len(ix.scan[attr]))
		ix.scan[attr] = append(ix.scan[attr], e)
	default:
		e = ix.join(home, f, access)
	}
	ix.entries[id] = member{e: e, pos: len(e.ids)}
	e.ids = append(e.ids, id)
	return id
}

// home counts the filter in the bucket of each of its hashable equalities
// and returns the most selective of them, with the index of its
// constraint; nil when the filter has none.
func (ix *Index) home(f eventalg.Filter) (home *eqBucket, access int) {
	fewest := 0
	for i := 0; i < f.Len(); i++ {
		c := f.At(i)
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
	return home, access
}

// join returns the entry of the home bucket that holds f's constraints,
// filing a new one under f.At(access) when none does.
func (ix *Index) join(home *eqBucket, f eventalg.Filter, access int) *indexEntry {
	k := groupKey{b: home, fp: fingerprint(f)}
	for e := ix.groups[k]; e != nil; e = e.next {
		if sameConstraints(e.cs, f) {
			return e
		}
	}
	e := newEntry(f, access, true, len(home.filed))
	e.fp, e.next = k.fp, ix.groups[k]
	ix.groups[k] = e
	home.filed = append(home.filed, e)
	return e
}

// newEntry returns an entry, with no members yet, for f filed under
// f.At(access) at position pos of its bucket or list.
func newEntry(f eventalg.Filter, access int, hashed bool, pos int) *indexEntry {
	cs := f.Constraints()
	if len(cs) > 0 {
		cs[0], cs[access] = cs[access], cs[0]
	}
	e := &indexEntry{cs: cs, hashed: hashed, pos: pos}
	e.ids = e.one[:0]
	return e
}

// sameConstraints reports whether cs and f hold the same constraints the
// same number of times, in any order. Equal multiplicity matters: Remove
// uncounts a member's equalities from its entry's copy.
func sameConstraints(cs []eventalg.Constraint, f eventalg.Filter) bool {
	if len(cs) != f.Len() {
		return false
	}
	for _, c := range cs {
		n := 0
		for j := range cs {
			if cs[j] == c {
				n++
			}
		}
		for j := 0; j < f.Len(); j++ {
			if f.At(j) == c {
				n--
			}
		}
		if n != 0 {
			return false
		}
	}
	return true
}

// Remove unregisters the filter in time proportional to its own
// constraints, whatever the size of the table or of its entry. Removing an
// unknown ID is a no-op. Writer-exclusive.
func (ix *Index) Remove(id int64) {
	m, ok := ix.entries[id]
	if !ok {
		return
	}
	delete(ix.entries, id)
	e := m.e
	last := len(e.ids) - 1
	if m.pos != last {
		moved := e.ids[last]
		e.ids[m.pos] = moved
		ix.entries[moved] = member{e: e, pos: m.pos}
	}
	e.ids = e.ids[:last]
	if last == 0 {
		ix.unfile(e)
	}
	if !e.hashed {
		return
	}
	for _, c := range e.cs {
		if !hashedEq(c) {
			continue
		}
		vals := ix.eq[c.Attr]
		if b := vals[c.Val]; b.wanted > 1 {
			b.wanted--
		} else if len(vals) > 1 {
			delete(vals, c.Val)
		} else {
			delete(ix.eq, c.Attr)
		}
	}
}

// unfile takes an entry whose last member has gone out of its bucket or
// list.
func (ix *Index) unfile(e *indexEntry) {
	switch {
	case len(e.cs) == 0:
		ix.matchAll = swapDelete(ix.matchAll, e.pos)
	case e.hashed:
		home := ix.eq[e.cs[0].Attr][e.cs[0].Val]
		home.filed = swapDelete(home.filed, e.pos)
		k := groupKey{b: home, fp: e.fp}
		if p := ix.groups[k]; p != e {
			for p.next != e {
				p = p.next
			}
			p.next = e.next
		} else if e.next != nil {
			ix.groups[k] = e.next
		} else {
			delete(ix.groups, k)
		}
	default:
		attr := e.cs[0].Attr
		if l := swapDelete(ix.scan[attr], e.pos); len(l) > 0 {
			ix.scan[attr] = l
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
// it does not allocate. Every ID belongs to one entry and every entry is
// filed in one place, so no ID appears twice. Safe for concurrent use with
// other matches.
func (ix *Index) MatchAttrs(a eventalg.Attrs, dst []int64) []int64 {
	for _, e := range ix.matchAll {
		dst = append(dst, e.ids...)
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

// appendVerified appends the member IDs of the bucket's entries whose
// constraints from cs[skip:] on all hold for the attribute set.
func appendVerified(dst []int64, bucket []*indexEntry, skip int, a eventalg.Attrs) []int64 {
next:
	for _, e := range bucket {
		for _, c := range e.cs[skip:] {
			if !c.MatchAttrs(a) {
				continue next
			}
		}
		dst = append(dst, e.ids...)
	}
	return dst
}
