// Package eventalg implements the subscription event algebra of the Reef
// publish-subscribe substrate.
//
// The algebra is the Siena/Cayuga-class language the paper targets:
// subscriptions are conjunctions of attribute–operator–value constraints
// over typed name-value pairs, with a covering relation used by the broker
// overlay to suppress redundant subscription propagation, plus stateful
// sequence ("followed by") subscriptions that span multiple events within a
// time window.
//
// The package also defines Schema, the "specification for valid name-value
// pairs in the system" (paper §2.1) that the attention parser consults when
// turning raw user-attention tokens into candidate subscriptions.
package eventalg

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the algebra.
type Kind int

// Supported value kinds. Start at 1 so the zero Kind is invalid.
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a typed attribute value. The zero Value is invalid; construct
// values with String, Int, Float or Bool.
type Value struct {
	kind Kind
	s    string
	// n holds an int's two's complement, a float's IEEE 754 bits or a
	// bool as 0/1: one word for the three, so a pair stays small.
	n uint64
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float constructs a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Bool constructs a boolean Value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// Kind reports the kind of the value. The zero Value reports 0.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value was constructed by one of the typed
// constructors.
func (v Value) IsValid() bool { return v.kind != 0 }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// String renders the value in the same syntax the filter parser accepts.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return strconv.Quote(v.s)
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b())
	default:
		return "<invalid>"
	}
}

// Text is the value's text on the wire and in the public API: a string
// verbatim, any other kind in filter syntax.
func (v Value) Text() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// numeric reports whether the value is an int or float and returns it as a
// float64 for cross-kind comparison.
func (v Value) numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i()), true
	case KindFloat:
		return v.f(), true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal. Int and float values compare
// numerically across kinds (Int(3) equals Float(3)).
func (v Value) Equal(o Value) bool {
	if a, ok := v.numeric(); ok {
		if b, ok2 := o.numeric(); ok2 {
			return a == b
		}
		return false
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b() == o.b()
	default:
		return false
	}
}

// Compare orders v relative to o: -1, 0 or +1. The second return is false
// when the two values are not comparable (different non-numeric kinds, or
// booleans, which have no order).
func (v Value) Compare(o Value) (int, bool) {
	if a, ok := v.numeric(); ok {
		b, ok2 := o.numeric()
		if !ok2 {
			return 0, false
		}
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind != KindString || o.kind != KindString {
		return 0, false
	}
	return strings.Compare(v.s, o.s), true
}

// ParseValue parses the textual form produced by Value.String (and accepted
// by the filter parser): quoted strings, integers, floats, and the literals
// true/false. Bare words that are not numbers or booleans parse as strings.
func ParseValue(text string) (Value, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return Value{}, fmt.Errorf("eventalg: empty value")
	}
	if text[0] == '"' || text[0] == '\'' {
		unq, err := unquote(text)
		if err != nil {
			return Value{}, fmt.Errorf("eventalg: bad quoted value %q: %w", text, err)
		}
		return String(unq), nil
	}
	switch text {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return Float(f), nil
	}
	return String(text), nil
}

// unquote handles both single- and double-quoted strings.
func unquote(s string) (string, error) {
	if len(s) < 2 {
		return "", fmt.Errorf("too short")
	}
	if s[0] == '\'' {
		if s[len(s)-1] != '\'' {
			return "", fmt.Errorf("unterminated single quote")
		}
		return s[1 : len(s)-1], nil
	}
	return strconv.Unquote(s)
}

// Tuple is an attribute set as a map from name to typed value. It is a
// construction and test convenience: events carry Attrs, and
// Tuple.Attrs converts.
type Tuple map[string]Value

// Get returns the value bound to name.
func (t Tuple) Get(name string) (Value, bool) {
	v, ok := t[name]
	return v, ok
}

// String renders the tuple deterministically for logs and tests.
func (t Tuple) String() string {
	names := make([]string, 0, len(t))
	for k := range t {
		names = append(names, k)
	}
	sortStrings(names)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(t[n].String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// sortStrings is a tiny insertion sort to avoid importing sort in the hot
// path packages that inline this file's helpers; tuples are small.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
