package eventalg

import (
	"sort"
	"strings"
)

// Filter is a conjunction of constraints: an event matches the filter when
// it satisfies every constraint. The empty filter matches everything (it is
// the top element of the covering order).
type Filter struct {
	constraints []Constraint
}

// NewFilter builds a filter from the given constraints. The constraint
// slice is copied.
func NewFilter(cs ...Constraint) Filter {
	out := make([]Constraint, len(cs))
	copy(out, cs)
	return Filter{constraints: out}
}

// Constraints returns a copy of the filter's constraints.
func (f Filter) Constraints() []Constraint {
	out := make([]Constraint, len(f.constraints))
	copy(out, f.constraints)
	return out
}

// Len returns the number of constraints.
func (f Filter) Len() int { return len(f.constraints) }

// At returns the i-th constraint in declaration order, without the copy
// Constraints makes.
func (f Filter) At(i int) Constraint { return f.constraints[i] }

// IsEmpty reports whether the filter has no constraints (matches all).
func (f Filter) IsEmpty() bool { return len(f.constraints) == 0 }

// And returns a new filter with the extra constraints appended.
func (f Filter) And(cs ...Constraint) Filter {
	out := make([]Constraint, 0, len(f.constraints)+len(cs))
	out = append(out, f.constraints...)
	out = append(out, cs...)
	return Filter{constraints: out}
}

// Match reports whether the tuple satisfies every constraint.
func (f Filter) Match(t Tuple) bool {
	for _, c := range f.constraints {
		if !c.Match(t) {
			return false
		}
	}
	return true
}

// MatchAttrs is Match on an event's attribute set.
func (f Filter) MatchAttrs(a Attrs) bool {
	for _, c := range f.constraints {
		if !c.MatchAttrs(a) {
			return false
		}
	}
	return true
}

// Covers reports whether f covers g: every tuple matching g also matches f.
// This is the standard conservative conjunction rule (Siena): every
// constraint of f must be covered by some constraint of g. It is sound
// (never claims covering that does not hold) but not complete.
func (f Filter) Covers(g Filter) bool {
	for _, cf := range f.constraints {
		covered := false
		for _, cg := range g.constraints {
			if cf.Covers(cg) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// Equal reports whether the two filters have the same canonical form.
func (f Filter) Equal(g Filter) bool {
	return f.Canonical() == g.Canonical()
}

// Canonical renders the filter with constraints sorted, producing a stable
// key for deduplication in subscription tables.
func (f Filter) Canonical() string {
	parts := make([]string, len(f.constraints))
	for i, c := range f.constraints {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " and ")
}

// String renders the filter in parser syntax, constraints in declaration
// order.
func (f Filter) String() string {
	if len(f.constraints) == 0 {
		return "<all>"
	}
	buf := make([]byte, 0, 64)
	for i, c := range f.constraints {
		if i > 0 {
			buf = append(buf, " and "...)
		}
		buf = c.appendText(buf)
	}
	return string(buf)
}

// Attrs returns the sorted set of attribute names the filter constrains.
func (f Filter) Attrs() []string {
	seen := make(map[string]struct{}, len(f.constraints))
	for _, c := range f.constraints {
		seen[c.Attr] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
