// Package linttest runs lint analyzers over testdata packages and
// compares the diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A want comment expects one diagnostic on its line whose message
// matches the quoted regular expression. Lines without a want comment
// must produce no diagnostics. Allow directives in the fixtures are
// honored, so suppression can be tested with a directive and no want;
// a directive that suppresses nothing is itself a finding.
package linttest

import (
	"go/ast"
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
	loader := lint.NewLoader("", "")
	pkg, err := loader.LoadDir(dir, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := lint.Run(nil, pkg, []*lint.Analyzer{a}, nil)
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
