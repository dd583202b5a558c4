package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

var timingLine = regexp.MustCompile(`(?m)^\[[A-Z0-9]+ finished in [0-9.]+s\]\n`)

// tables runs the verb in-process and returns its exit code, its
// stdout with the wall-time lines removed, and its stderr.
func tables(args ...string) (code int, out, errOut string) {
	var stdout, stderr bytes.Buffer
	code = runTables(args, &stdout, &stderr)
	return code, timingLine.ReplaceAllString(stdout.String(), ""), stderr.String()
}

// TestTablesGolden pins the paper's tables at -quick -seed 2006 to the
// bytes in testdata/tables_quick.golden, which the evaluation binary
// this verb replaced printed at commit 1de2e83. Naming no ID runs every
// table, which is what the golden holds; -short leaves out the two slow
// ones.
func TestTablesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/tables_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	args := []string{"-quick", "-seed", "2006"}
	if testing.Short() {
		args = append(args, "e1", "e2", "f1", "a2", "a3")
		want = ""
		for _, table := range strings.SplitAfter(string(golden), "\n\n\n") {
			if !strings.HasPrefix(table, "E3 ") && !strings.HasPrefix(table, "A1 ") {
				want += table
			}
		}
	}
	code, got, errOut := tables(args...)
	if code != 0 || errOut != "" {
		t.Fatalf("tables %v: exit %d, stderr %q", args, code, errOut)
	}
	if got != want {
		t.Errorf("tables %v differ from testdata/tables_quick.golden\n--- got ---\n%s--- want ---\n%s", args, got, want)
	}
}

func TestTablesArguments(t *testing.T) {
	const valid = "e1 e2 e3 f1 f2 a1 a2 a3"
	for _, tc := range []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
		wantTitles []string // first words of the tables printed, in order
	}{
		{"unknown id", []string{"-quick", "foo"}, 2, `unknown experiment "foo" (valid: ` + valid + `)`, nil},
		{"unknown id after a valid one", []string{"-quick", "a2", "publish"}, 2, `unknown experiment "publish"`, nil},
		{"flag after an id", []string{"e1", "-quick"}, 2, `flag "-quick" must come before the experiment IDs`, nil},
		{"unknown flag", []string{"-benchdir", "x", "e1"}, 2, "flag provided but not defined: -benchdir", nil},
		{"bad seed", []string{"-seed", "x"}, 2, `invalid value "x" for flag -seed`, nil},
		{"f1 and f2 print the shared table once", []string{"-quick", "f1", "f2"}, 0, "", []string{"F1/F2"}},
		{"ids are case-insensitive and print in suite order", []string{"-quick", "A2", "e1"}, 0, "", []string{"E1", "A2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := tables(tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.wantCode, errOut)
			}
			if !strings.Contains(errOut, tc.wantStderr) {
				t.Errorf("stderr %q, want it to contain %q", errOut, tc.wantStderr)
			}
			var titles []string
			for _, table := range strings.SplitAfter(out, "\n\n\n") {
				if title, _, ok := strings.Cut(table, " "); ok {
					titles = append(titles, title)
				}
			}
			if strings.Join(titles, ",") != strings.Join(tc.wantTitles, ",") {
				t.Errorf("printed tables %v, want %v", titles, tc.wantTitles)
			}
		})
	}
}
