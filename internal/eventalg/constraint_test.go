package eventalg

import (
	"hash/maphash"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstraintMatch(t *testing.T) {
	tuple := Tuple{
		"topic": String("sports"),
		"hits":  Int(10),
		"score": Float(0.5),
		"live":  Bool(true),
		"url":   String("http://news.example.com/rss"),
	}
	tests := []struct {
		c    Constraint
		want bool
	}{
		{C("topic", OpEq, String("sports")), true},
		{C("topic", OpEq, String("politics")), false},
		{C("topic", OpNe, String("politics")), true},
		{C("topic", OpNe, String("sports")), false},
		{C("topic", OpNe, Int(3)), false}, // incomparable kinds never match
		{C("hits", OpGt, Int(5)), true},
		{C("hits", OpGt, Int(10)), false},
		{C("hits", OpGe, Int(10)), true},
		{C("hits", OpLt, Int(20)), true},
		{C("hits", OpLe, Int(10)), true},
		{C("hits", OpLt, Float(10.5)), true},
		{C("score", OpGt, Float(0.4)), true},
		{C("score", OpGt, Int(1)), false},
		{C("live", OpEq, Bool(true)), true},
		{C("url", OpPrefix, String("http://news")), true},
		{C("url", OpPrefix, String("https://")), false},
		{C("url", OpSuffix, String("/rss")), true},
		{C("url", OpContains, String("example")), true},
		{C("url", OpContains, String("nothere")), false},
		{Exists("topic"), true},
		{Exists("missing"), false},
		{C("missing", OpEq, String("x")), false},
		{C("hits", OpPrefix, String("1")), false}, // prefix on non-string
	}
	for _, tt := range tests {
		if got := tt.c.Match(tuple); got != tt.want {
			t.Errorf("%s .Match = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestConstraintCovers(t *testing.T) {
	tests := []struct {
		c, d Constraint
		want bool
	}{
		{Exists("x"), C("x", OpEq, Int(3)), true},
		{Exists("x"), C("y", OpEq, Int(3)), false},
		{C("x", OpEq, Int(3)), Exists("x"), false},
		{C("x", OpEq, Int(3)), C("x", OpEq, Int(3)), true},
		{C("x", OpEq, Int(3)), C("x", OpEq, Int(4)), false},
		{C("x", OpGt, Int(5)), C("x", OpGt, Int(7)), true},
		{C("x", OpGt, Int(7)), C("x", OpGt, Int(5)), false},
		{C("x", OpGt, Int(5)), C("x", OpEq, Int(6)), true},
		{C("x", OpGt, Int(5)), C("x", OpEq, Int(5)), false},
		{C("x", OpGe, Int(5)), C("x", OpEq, Int(5)), true},
		{C("x", OpGt, Int(5)), C("x", OpGe, Int(6)), true},
		{C("x", OpGt, Int(5)), C("x", OpGe, Int(5)), false},
		{C("x", OpLt, Int(10)), C("x", OpLt, Int(9)), true},
		{C("x", OpLt, Int(10)), C("x", OpLe, Int(9)), true},
		{C("x", OpLt, Int(10)), C("x", OpLe, Int(10)), false},
		{C("x", OpLe, Int(10)), C("x", OpLt, Int(10)), true},
		{C("x", OpNe, Int(3)), C("x", OpEq, Int(4)), true},
		{C("x", OpNe, Int(3)), C("x", OpEq, Int(3)), false},
		{C("x", OpNe, Int(3)), C("x", OpNe, Int(3)), true},
		{C("x", OpNe, Int(3)), C("x", OpLt, Int(3)), true},
		{C("x", OpNe, Int(3)), C("x", OpLt, Int(4)), false},
		{C("x", OpNe, Int(3)), C("x", OpGt, Int(3)), true},
		{C("u", OpPrefix, String("ab")), C("u", OpPrefix, String("abc")), true},
		{C("u", OpPrefix, String("abc")), C("u", OpPrefix, String("ab")), false},
		{C("u", OpPrefix, String("ab")), C("u", OpEq, String("abxyz")), true},
		{C("u", OpSuffix, String("ss")), C("u", OpSuffix, String("rss")), true},
		{C("u", OpSuffix, String("ss")), C("u", OpEq, String("press")), true},
		{C("u", OpContains, String("b")), C("u", OpContains, String("abc")), true},
		{C("u", OpContains, String("b")), C("u", OpPrefix, String("ab")), true},
		{C("u", OpContains, String("z")), C("u", OpPrefix, String("ab")), false},
		{C("u", OpContains, String("b")), C("u", OpEq, String("abc")), true},
	}
	for _, tt := range tests {
		if got := tt.c.Covers(tt.d); got != tt.want {
			t.Errorf("(%s).Covers(%s) = %v, want %v", tt.c, tt.d, got, tt.want)
		}
	}
}

// genValue produces a random small-domain value so collisions happen often
// enough to exercise interesting cases.
func genValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Int(int64(r.Intn(10)))
	case 1:
		return Float(float64(r.Intn(20)) / 2)
	case 2:
		letters := []string{"", "a", "ab", "abc", "b", "rss", "press"}
		return String(letters[r.Intn(len(letters))])
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func genOp(r *rand.Rand) Op {
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpSuffix, OpContains, OpExists}
	return ops[r.Intn(len(ops))]
}

// TestConstraintCoversSound property-checks covering soundness: whenever
// c.Covers(d) holds, every value matching d must match c.
func TestConstraintCoversSound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const trials = 20000
	for i := 0; i < trials; i++ {
		c := Constraint{Attr: "x", Op: genOp(r), Val: genValue(r)}
		d := Constraint{Attr: "x", Op: genOp(r), Val: genValue(r)}
		if !c.Covers(d) {
			continue
		}
		for j := 0; j < 50; j++ {
			v := genValue(r)
			tu := Tuple{"x": v}
			if d.Match(tu) && !c.Match(tu) {
				t.Fatalf("unsound covering: (%s).Covers(%s) but value %v matches d not c", c, d, v)
			}
		}
	}
}

// TestConstraintMatchDeterministic uses testing/quick to check Match is a
// pure function of its inputs.
func TestConstraintMatchDeterministic(t *testing.T) {
	f := func(attr string, iv int64, cv int64) bool {
		c := C(attr, OpGt, Int(cv))
		tu := Tuple{attr: Int(iv)}
		a := c.Match(tu)
		b := c.Match(tu)
		return a == b && a == (iv > cv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseOp(t *testing.T) {
	good := map[string]Op{
		"=": OpEq, "==": OpEq, "!=": OpNe, "<>": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
		"prefix": OpPrefix, "SUFFIX": OpSuffix, "Contains": OpContains,
		"exists": OpExists,
	}
	for in, want := range good {
		got, err := ParseOp(in)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = (%v,%v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseOp("~="); err == nil {
		t.Error("ParseOp(~=) succeeded, want error")
	}
}

// TestConstraintHash: equal constraints hash equal, and a change to any
// field (attribute, operator, value kind or value) changes the hash.
func TestConstraintHash(t *testing.T) {
	seed := maphash.MakeSeed()
	cs := []Constraint{
		C("feed", OpEq, String("a")),
		C("feed", OpEq, String("b")),
		C("type", OpEq, String("a")),
		C("feed", OpNe, String("a")),
		C("n", OpGt, Int(3)),
		C("n", OpGt, Int(4)),
		C("n", OpGt, Float(3)),
		C("n", OpEq, Bool(true)),
		C("n", OpEq, Bool(false)),
		Exists("n"),
	}
	seen := make(map[uint64]Constraint)
	for _, c := range cs {
		h := c.Hash(seed)
		if o, dup := seen[h]; dup {
			t.Errorf("%v and %v hash alike", o, c)
		}
		seen[h] = c
		if same := C(c.Attr, c.Op, c.Val); same.Hash(seed) != h {
			t.Errorf("two copies of %v hash differently", c)
		}
	}
}
