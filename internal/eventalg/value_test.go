package eventalg

import (
	"testing"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
	}{
		{"string", String("hello"), KindString},
		{"int", Int(42), KindInt},
		{"float", Float(3.14), KindFloat},
		{"bool", Bool(true), KindBool},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if !tt.v.IsValid() {
				t.Error("IsValid() = false for constructed value")
			}
		})
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero Value reports valid")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Int(3), Int(3), true},
		{Int(3), Float(3), true},
		{Float(2.5), Float(2.5), true},
		{Int(3), Int(4), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{String("3"), Int(3), false},
		{Bool(true), Int(1), false},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Equal(tt.a); got != tt.want {
			t.Errorf("Equal not symmetric for %v, %v", tt.a, tt.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b   Value
		want   int
		wantOK bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(1), 1, true},
		{Int(2), Int(2), 0, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.5), Int(2), 1, true},
		{String("a"), String("b"), -1, true},
		{String("b"), String("a"), 1, true},
		{String("a"), String("a"), 0, true},
		{String("a"), Int(1), 0, false},
		{Bool(true), Bool(false), 0, false},
		{Int(1), Bool(true), 0, false},
	}
	for _, tt := range tests {
		got, ok := tt.a.Compare(tt.b)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("%v.Compare(%v) = (%d,%v), want (%d,%v)", tt.a, tt.b, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestParseValue(t *testing.T) {
	tests := []struct {
		in      string
		want    Value
		wantErr bool
	}{
		{`"hello"`, String("hello"), false},
		{`'world'`, String("world"), false},
		{`42`, Int(42), false},
		{`-7`, Int(-7), false},
		{`3.5`, Float(3.5), false},
		{`true`, Bool(true), false},
		{`false`, Bool(false), false},
		{`sports`, String("sports"), false},
		{`"unterminated`, Value{}, true},
		{``, Value{}, true},
		{`  padded  `, String("padded"), false},
	}
	for _, tt := range tests {
		got, err := ParseValue(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseValue(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && !got.Equal(tt.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	values := []Value{
		String("hello world"), String(""), String(`with "quotes"`),
		Int(0), Int(-123456), Int(1 << 40),
		Float(0.125), Float(-9.75),
		Bool(true), Bool(false),
	}
	for _, v := range values {
		got, err := ParseValue(v.String())
		if err != nil {
			t.Errorf("round trip %v: %v", v, err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v = %v", v, got)
		}
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{"b": Int(2), "a": String("x"), "c": Bool(true)}
	want := `{a="x", b=2, c=true}`
	if got := tu.String(); got != want {
		t.Errorf("Tuple.String() = %q, want %q", got, want)
	}
}

func TestKindString(t *testing.T) {
	if KindString.String() != "string" || KindInt.String() != "int" ||
		KindFloat.String() != "float" || KindBool.String() != "bool" {
		t.Error("Kind.String() mismatch")
	}
}
