// Package linttest runs lint analyzers over testdata packages and
// compares the diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A want comment expects one diagnostic on its line whose message
// matches the quoted regular expression. Lines without a want comment
// must produce no diagnostics. Allow directives in the fixtures are
// honored, so suppression can be tested with a directive and no want.
package linttest

import (
	"go/ast"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"thermctl/internal/lint"
)

// want is one expectation.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the single package in dir (which must import only the
// standard library), runs the analyzer over it, and reports
// mismatches between diagnostics and want comments through t.
//
//thermlint:allow deadcode -- cross-package test helper: every analyzer's testdata runs through it
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	runDiags(t, dir, a)
}

// RunFix runs the analyzer like Run, then applies every suggested fix
// and compares each fixed file against its committed golden twin
// (<file>.golden in the same directory). This is the `-fix` round-trip
// test: the goldens are what thermlint -fix would leave on disk.
//
//thermlint:allow deadcode -- cross-package test helper: the -fix round trip of hotalloc's testdata runs through it
func RunFix(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	diags := runDiags(t, dir, a)
	changed, skipped, err := lint.ApplyFixes(diags)
	if err != nil {
		t.Fatalf("applying fixes in %s: %v", dir, err)
	}
	for _, d := range skipped {
		t.Errorf("fix skipped as conflicting: %s", d)
	}
	if len(changed) == 0 {
		t.Fatalf("RunFix(%s): analyzer produced no fixes; use Run for fix-less analyzers", dir)
	}
	for file, got := range changed {
		golden := file + ".golden"
		wantSrc, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("fixed %s but no golden: %v", file, err)
			continue
		}
		if string(got) != string(wantSrc) {
			t.Errorf("fix output for %s does not match %s:\n%s", file, golden,
				lint.Diff(file, wantSrc, got))
		}
	}
}

func runDiags(t *testing.T, dir string, a *lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	loader := lint.NewLoader("", "")
	pkg, err := loader.LoadDir(dir, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := lint.Run(nil, pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
	return diags
}

var wantRe = regexp.MustCompile(`//\s*want\s+(` + "`[^`]*`" + `|"(?:[^"\\]|\\.)*")`)

// collectWants extracts the want comments of every file.
func collectWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				out = append(out, parseWants(t, pkg, c)...)
			}
		}
	}
	return out
}

func parseWants(t *testing.T, pkg *lint.Package, c *ast.Comment) []*want {
	t.Helper()
	var out []*want
	pos := pkg.Fset.Position(c.Pos())
	for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
		lit := m[1]
		var text string
		if strings.HasPrefix(lit, "`") {
			text = strings.Trim(lit, "`")
		} else {
			var err error
			text, err = strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
			}
		}
		re, err := regexp.Compile(text)
		if err != nil {
			t.Fatalf("%s: bad want pattern %q: %v", pos, text, err)
		}
		out = append(out, &want{file: pos.Filename, line: pos.Line, pattern: re})
	}
	return out
}

func matchWant(wants []*want, d lint.Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
			return w
		}
	}
	return nil
}
