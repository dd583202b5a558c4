package eventalg

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
)

// Op enumerates the constraint operators of the algebra.
type Op int

// Supported operators. Start at 1 so the zero Op is invalid.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpPrefix
	OpSuffix
	OpContains
	OpExists
)

// String returns the parser syntax for the operator.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpPrefix:
		return "prefix"
	case OpSuffix:
		return "suffix"
	case OpContains:
		return "contains"
	case OpExists:
		return "exists"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// ParseOp parses the textual operator form.
func ParseOp(text string) (Op, error) {
	switch strings.ToLower(text) {
	case "=", "==":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	case "prefix":
		return OpPrefix, nil
	case "suffix":
		return OpSuffix, nil
	case "contains":
		return OpContains, nil
	case "exists":
		return OpExists, nil
	default:
		return 0, fmt.Errorf("eventalg: unknown operator %q", text)
	}
}

// Constraint is a single attribute–operator–value predicate.
// For OpExists the Val field is ignored.
type Constraint struct {
	Attr string
	Op   Op
	Val  Value
}

// C is shorthand for constructing a Constraint.
func C(attr string, op Op, val Value) Constraint {
	return Constraint{Attr: attr, Op: op, Val: val}
}

// Exists constructs an existence constraint on attr.
func Exists(attr string) Constraint {
	return Constraint{Attr: attr, Op: OpExists}
}

// Hash returns a hash of the constraint under seed that equal constraints
// (==) share, without allocating.
func (c Constraint) Hash(seed maphash.Seed) uint64 {
	h := mix64(maphash.String(seed, c.Attr) ^ uint64(c.Op)<<8 ^ uint64(c.Val.kind))
	h = mix64(h ^ maphash.String(seed, c.Val.s))
	return mix64(h ^ c.Val.n)
}

// mix64 is the SplitMix64 finalizer: every input bit moves about half the
// output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// String renders the constraint in parser syntax.
func (c Constraint) String() string { return string(c.appendText(nil)) }

// appendText appends the constraint's String form to dst.
func (c Constraint) appendText(dst []byte) []byte {
	dst = append(dst, c.Attr...)
	if c.Op == OpExists {
		return append(dst, " exists"...)
	}
	dst = append(append(append(dst, ' '), c.Op.String()...), ' ')
	if c.Val.kind == KindString {
		return strconv.AppendQuote(dst, c.Val.s)
	}
	return append(dst, c.Val.String()...)
}

// Match reports whether the tuple satisfies the constraint. A constraint on
// an absent attribute never matches (except that OpExists requires
// presence). Comparisons between incomparable kinds never match.
func (c Constraint) Match(t Tuple) bool {
	v, ok := t[c.Attr]
	if !ok {
		return false
	}
	return c.matchValue(v)
}

// MatchAttrs is Match on an event's attribute set.
func (c Constraint) MatchAttrs(a Attrs) bool {
	v, ok := a.Get(c.Attr)
	return ok && c.matchValue(v)
}

func (c Constraint) matchValue(v Value) bool {
	switch c.Op {
	case OpExists:
		return true
	case OpEq:
		return v.Equal(c.Val)
	case OpNe:
		// Not-equal requires comparable kinds; a string attribute is not
		// "!= 3" — mirroring Siena's typed semantics.
		if !sameFamily(v, c.Val) {
			return false
		}
		return !v.Equal(c.Val)
	case OpLt:
		cmp, ok := v.Compare(c.Val)
		return ok && cmp < 0
	case OpLe:
		cmp, ok := v.Compare(c.Val)
		return ok && cmp <= 0
	case OpGt:
		cmp, ok := v.Compare(c.Val)
		return ok && cmp > 0
	case OpGe:
		cmp, ok := v.Compare(c.Val)
		return ok && cmp >= 0
	case OpPrefix:
		return v.Kind() == KindString && c.Val.Kind() == KindString &&
			strings.HasPrefix(v.Str(), c.Val.Str())
	case OpSuffix:
		return v.Kind() == KindString && c.Val.Kind() == KindString &&
			strings.HasSuffix(v.Str(), c.Val.Str())
	case OpContains:
		return v.Kind() == KindString && c.Val.Kind() == KindString &&
			strings.Contains(v.Str(), c.Val.Str())
	default:
		return false
	}
}

// sameFamily reports whether two values belong to the same comparison
// family (numeric kinds form one family).
func sameFamily(a, b Value) bool {
	fam := func(k Kind) int {
		switch k {
		case KindInt, KindFloat:
			return 1
		case KindString:
			return 2
		case KindBool:
			return 3
		default:
			return 0
		}
	}
	return fam(a.Kind()) == fam(b.Kind()) && fam(a.Kind()) != 0
}

// Covers reports whether c covers d: every value that satisfies d also
// satisfies c. The implementation is exact for same-attribute pairs within
// the operator set and conservative (returns false) otherwise.
func (c Constraint) Covers(d Constraint) bool {
	if c.Attr != d.Attr {
		return false
	}
	// Existence covers any constraint on the same attribute: all our
	// operators require the attribute to be present.
	if c.Op == OpExists {
		return true
	}
	if d.Op == OpExists {
		return false
	}
	switch c.Op {
	case OpEq:
		// x = v covers only x = v.
		return d.Op == OpEq && d.Val.Equal(c.Val)
	case OpNe:
		switch d.Op {
		case OpNe:
			return sameFamily(c.Val, d.Val) && d.Val.Equal(c.Val)
		case OpEq:
			// x != v covers x = w when w != v (same family).
			return sameFamily(c.Val, d.Val) && !d.Val.Equal(c.Val)
		case OpLt:
			// x != v covers x < w when w <= v.
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp <= 0
		case OpGt:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp >= 0
		case OpPrefix, OpSuffix, OpContains:
			return false
		default:
			return false
		}
	case OpLt:
		switch d.Op {
		case OpLt:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp <= 0
		case OpLe:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp < 0
		case OpEq:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp < 0
		default:
			return false
		}
	case OpLe:
		switch d.Op {
		case OpLt, OpLe, OpEq:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp <= 0
		default:
			return false
		}
	case OpGt:
		switch d.Op {
		case OpGt:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp >= 0
		case OpGe:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp > 0
		case OpEq:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp > 0
		default:
			return false
		}
	case OpGe:
		switch d.Op {
		case OpGt, OpGe, OpEq:
			cmp, ok := d.Val.Compare(c.Val)
			return ok && cmp >= 0
		default:
			return false
		}
	case OpPrefix:
		switch d.Op {
		case OpPrefix:
			// prefix "ab" covers prefix "abc".
			return d.Val.Kind() == KindString && c.Val.Kind() == KindString &&
				strings.HasPrefix(d.Val.Str(), c.Val.Str())
		case OpEq:
			return d.Val.Kind() == KindString && c.Val.Kind() == KindString &&
				strings.HasPrefix(d.Val.Str(), c.Val.Str())
		default:
			return false
		}
	case OpSuffix:
		switch d.Op {
		case OpSuffix:
			return d.Val.Kind() == KindString && c.Val.Kind() == KindString &&
				strings.HasSuffix(d.Val.Str(), c.Val.Str())
		case OpEq:
			return d.Val.Kind() == KindString && c.Val.Kind() == KindString &&
				strings.HasSuffix(d.Val.Str(), c.Val.Str())
		default:
			return false
		}
	case OpContains:
		switch d.Op {
		case OpContains, OpEq, OpPrefix, OpSuffix:
			return d.Val.Kind() == KindString && c.Val.Kind() == KindString &&
				strings.Contains(d.Val.Str(), c.Val.Str())
		default:
			return false
		}
	default:
		return false
	}
}
