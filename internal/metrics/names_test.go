package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMetricNamesUseConstantTable walks every non-test Go file in the
// repository and rejects "reef_"-prefixed string literals outside this
// package. Metric families must be spelled via the Def table (names.go)
// so the flat Stats() key and the Prometheus name cannot drift apart;
// a raw literal is exactly the drift this table exists to prevent.
func TestMetricNamesUseConstantTable(t *testing.T) {
	root := moduleRoot(t)
	selfDir := filepath.Join(root, "internal", "metrics")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || path == selfDir {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if strings.HasPrefix(s, "reef_") {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d: raw metric name %q; use the internal/metrics Def table instead",
					rel, fset.Position(lit.Pos()).Line, s)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestComponentSeriesHaveDefs holds every series the deployments report
// through AppendRegistry to a Def: each literal name a server, broker
// or proxy registers must resolve, behind the prefix the engine gives
// AppendRegistry, to a table entry, or Stats() would silently lose it.
func TestComponentSeriesHaveDefs(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	for file, prefix := range map[string]string{
		"internal/core/centralized.go": "",
		"internal/pubsub/broker.go":    "broker_",
		"internal/waif/waif.go":        "proxy_",
	} {
		f, err := parser.ParseFile(fset, filepath.Join(root, file), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := 0
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram":
			default:
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			names++
			if _, ok := byKey[prefix+name]; !ok {
				t.Errorf("%s:%d: registry series %q has no Def keyed %q",
					file, fset.Position(lit.Pos()).Line, name, prefix+name)
			}
			return true
		})
		if names == 0 {
			t.Errorf("%s registers no series; the file list is stale", file)
		}
	}
}
