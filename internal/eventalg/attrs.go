package eventalg

import (
	"slices"
	"strings"
)

// Attr is one name-value pair of an event.
type Attr struct {
	Name string
	Val  Value
}

// Attrs is an event's attribute set in its one internal form: the pairs
// sorted by name, each name once. Filters evaluate on it by lookup; no
// map is built. Construct it with SortAttrs, StringAttrs or Tuple.Attrs,
// or write a literal already in that order.
type Attrs []Attr

// scanMax is the largest set Get scans linearly; above it Get
// binary-searches. Events carry a handful of attributes, so the scan is
// the common branch.
const scanMax = 8

// Get returns the value bound to name.
func (a Attrs) Get(name string) (Value, bool) {
	if len(a) <= scanMax {
		for i := range a {
			if a[i].Name == name {
				return a[i].Val, true
			}
		}
		return Value{}, false
	}
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m].Name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(a) && a[lo].Name == name {
		return a[lo].Val, true
	}
	return Value{}, false
}

// Strings returns the set as a name-to-text map: string values
// verbatim, other kinds in filter syntax. An empty set returns nil.
func (a Attrs) Strings() map[string]string {
	if len(a) == 0 {
		return nil
	}
	m := make(map[string]string, len(a))
	for _, p := range a {
		m[p.Name] = p.Val.Text()
	}
	return m
}

// String renders the set like Tuple.String.
func (a Attrs) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range a {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Name)
		sb.WriteByte('=')
		sb.WriteString(p.Val.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

func byName(x, y Attr) int { return strings.Compare(x.Name, y.Name) }

// SortAttrs puts pairs in the canonical order in place: sorted by name,
// and of the pairs that repeat a name only the last is kept, as
// assigning them into a map one by one would. It returns the canonical
// prefix of pairs.
func SortAttrs(pairs []Attr) Attrs {
	sorted := true
	for i := 1; i < len(pairs) && sorted; i++ {
		sorted = pairs[i-1].Name < pairs[i].Name
	}
	if sorted {
		return pairs
	}
	if len(pairs) <= scanMax {
		// Insertion sort: stable, and cheaper than a call per compare on
		// the handful of pairs an event carries.
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && pairs[j].Name < pairs[j-1].Name; j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
	} else {
		slices.SortStableFunc(pairs, byName)
	}
	out := pairs[:0]
	for i, p := range pairs {
		if i+1 < len(pairs) && pairs[i+1].Name == p.Name {
			continue
		}
		out = append(out, p)
	}
	return out
}

// StringAttrs returns the pairs of m as string values, in the canonical
// order. An empty map returns nil.
func StringAttrs(m map[string]string) Attrs {
	if len(m) == 0 {
		return nil
	}
	pairs := make([]Attr, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, Attr{Name: k, Val: String(v)})
	}
	slices.SortFunc(pairs, byName)
	return pairs
}

// Attrs returns the tuple's pairs in the canonical order.
func (t Tuple) Attrs() Attrs { return t.AttrsInto(nil) }

// AttrsInto is Attrs reusing buf's storage when it is large enough.
func (t Tuple) AttrsInto(buf Attrs) Attrs {
	if len(t) == 0 {
		return buf[:0]
	}
	if cap(buf) < len(t) {
		buf = make(Attrs, 0, len(t))
	}
	buf = buf[:0]
	for k, v := range t {
		buf = append(buf, Attr{Name: k, Val: v})
	}
	slices.SortFunc(buf, byName)
	return buf
}
