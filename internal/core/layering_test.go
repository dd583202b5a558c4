package core

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestCoreLayering pins the package to analysis: clicks and pages in,
// recommendations out. Placing a subscription belongs to the root
// engine, so no non-test file here may import the frontend, the broker
// or the clock that placing one needs.
func TestCoreLayering(t *testing.T) {
	forbidden := map[string]bool{
		"reef/internal/frontend": true,
		"reef/internal/pubsub":   true,
		"reef/internal/simclock": true,
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[path] {
				t.Errorf("%s imports %s: internal/core only analyzes; the engine applies", fset.Position(imp.Pos()), path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files parsed")
	}
}
