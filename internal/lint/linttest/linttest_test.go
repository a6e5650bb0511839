package linttest

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"thermctl/internal/lint"
)

// calltrap flags every call to a function literally named "forbidden";
// the fixtures below exercise the allow directives through the full
// harness, the way analyzer testdata packages use them.
var calltrap = &lint.Analyzer{
	Name: "calltrap",
	Doc:  "flags calls to forbidden()",
	Run: func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "forbidden" {
						pass.Reportf(call.Pos(), "forbidden call")
					}
				}
				return true
			})
		}
		return nil
	},
}

// writeFixture lays out a one-file package and returns its directory.
func writeFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestAllowDirectiveForms drives Run over a fixture whose expectations
// only hold if the directives behave as documented: a directive
// suppresses exactly the analyzers it names, one naming some other
// analyzer suppresses nothing, one naming no analyzer is a finding,
// and one naming the analyzer that ran but covering none of its
// findings is reported as unused.
func TestAllowDirectiveForms(t *testing.T) {
	dir := writeFixture(t, `package fix

func forbidden() {}

func fine() {}

func a() {
	forbidden() // want "forbidden call"
	forbidden() //thermlint:allow calltrap -- suppresses the named analyzer
	//thermlint:allow calltrap -- standalone form covers the next line
	forbidden()
	forbidden() //thermlint:allow othercheck -- names a different analyzer: still reported // want "forbidden call"
	forbidden() //thermlint:allow calltrap,othercheck -- a list may mix names
	forbidden() //thermlint:allow -- names no analyzer // want "forbidden call" // want "names no analyzer"
	//thermlint:allow calltrap -- covers no finding // want "calltrap suppresses no finding"
	fine()
}
`)
	Run(t, dir, calltrap)
}

// TestWantBacktickPattern covers the backtick want-literal syntax.
func TestWantBacktickPattern(t *testing.T) {
	dir := writeFixture(t, `package fix

func forbidden() {}

func a() {
	forbidden() // want `+"`forbidden c.ll`"+`
}
`)
	Run(t, dir, calltrap)
}
