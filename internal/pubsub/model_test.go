package pubsub

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"reef/internal/eventalg"
)

// TestPairPathMatchesTuplePath is the seeded model test of the event's
// one internal form: on generated filters over every operator with
// string, int, float and bool constants, and generated events of 0 to
// 12 attributes of every kind (both sides of Attrs.Get's scan/search
// threshold), some naming an attribute twice, the sorted-pair path
// agrees with the map path. The pairs equal the tuple's own, the last
// value of a repeated name winning on both; Filter.Match(tuple) equals
// Filter.MatchAttrs(pairs); and the Index returns the same IDs through
// MatchAppend(tuple) and MatchAttrs(pairs), the IDs of the filters that
// match.
func TestPairPathMatchesTuplePath(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("a%02d", i)
	}
	words := []string{"", "al", "alpha", "alphabet", "beta", "pha", "3"}
	genVal := func() eventalg.Value {
		switch r.Intn(4) {
		case 0:
			return eventalg.String(words[r.Intn(len(words))])
		case 1:
			return eventalg.Int(int64(r.Intn(7) - 3))
		case 2:
			return eventalg.Float(float64(r.Intn(13)-6) / 2)
		default:
			return eventalg.Bool(r.Intn(2) == 0)
		}
	}
	ops := []eventalg.Op{
		eventalg.OpEq, eventalg.OpNe, eventalg.OpLt, eventalg.OpLe, eventalg.OpGt,
		eventalg.OpGe, eventalg.OpPrefix, eventalg.OpSuffix, eventalg.OpContains, eventalg.OpExists,
	}
	genFilter := func() eventalg.Filter {
		cs := make([]eventalg.Constraint, r.Intn(4))
		for i := range cs {
			cs[i] = eventalg.C(names[r.Intn(len(names))], ops[r.Intn(len(ops))], genVal())
		}
		return eventalg.NewFilter(cs...)
	}

	ix := NewIndex()
	filters := make(map[int64]eventalg.Filter)
	for i := 0; i < 400; i++ {
		f := genFilter()
		filters[ix.Add(f)] = f
	}
	var want, ids, pairIDs []int64
	for step := 0; step < 3000; step++ {
		n := r.Intn(13)
		pairs := make([]eventalg.Attr, 0, n+2)
		for i := 0; i < n; i++ {
			p := eventalg.Attr{Name: names[r.Intn(len(names))], Val: genVal()}
			pairs = append(pairs, p)
			if r.Intn(6) == 0 { // the same name again, with its own value
				pairs = append(pairs, eventalg.Attr{Name: p.Name, Val: genVal()})
			}
		}
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		// The map takes the pairs in the order they are sent: the last
		// value of a name wins.
		tu := eventalg.Tuple{}
		for _, p := range pairs {
			tu[p.Name] = p.Val
		}
		attrs := eventalg.SortAttrs(pairs)
		if want := tu.Attrs(); !slices.Equal(attrs, want) {
			t.Fatalf("step %d: sorted pairs %v, tuple's own %v", step, attrs, want)
		}
		want = want[:0]
		for id, f := range filters {
			got, match := f.MatchAttrs(attrs), f.Match(tu)
			if got != match {
				t.Fatalf("step %d: filter %s on %v: pair path %v, tuple path %v", step, f, tu, got, match)
			}
			if match {
				want = append(want, id)
			}
		}
		ids = ix.MatchAppend(tu, ids[:0])
		pairIDs = ix.MatchAttrs(attrs, pairIDs[:0])
		slices.Sort(want)
		slices.Sort(ids)
		slices.Sort(pairIDs)
		if !slices.Equal(ids, pairIDs) || !slices.Equal(ids, want) {
			t.Fatalf("step %d: event %v: MatchAppend(tuple) %v, MatchAttrs(pairs) %v, filters %v", step, tu, ids, pairIDs, want)
		}
	}
}
