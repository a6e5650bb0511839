package lint_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermctl/internal/lint"
)

// testAnalyzer flags every call to a function literally named
// "forbidden".
var testAnalyzer = &lint.Analyzer{
	Name: "testcheck",
	Doc:  "flags calls to forbidden()",
	Run: func(pass *lint.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "forbidden" {
					pass.Reportf(call.Pos(), "forbidden call")
				}
				return true
			})
		}
		return nil
	},
}

const fixture = `package fix

func forbidden() {}

func a() {
	forbidden()
	forbidden() //thermlint:allow testcheck -- trailing directive with reason
	//thermlint:allow testcheck -- standalone directive covers the next line
	forbidden()
	forbidden() //thermlint:allow testcheck
	forbidden() //thermlint:allow othercheck -- names a different analyzer
	forbidden() //thermlint:allow -- names no analyzer
	//thermlint:allow testcheck -- covers no finding
	_ = 0
	forbidden() //thermlint:allow testcheck,nosuchcheck -- names an analyzer the driver does not register
}
`

func loadFixture(t *testing.T) *lint.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.NewLoader("", "").LoadDir(dir, dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestDirectives(t *testing.T) {
	pkg := loadFixture(t)
	known := func(name string) bool { return name == "testcheck" || name == "othercheck" }
	diags, err := lint.Run(nil, pkg, []*lint.Analyzer{testAnalyzer}, known)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		line     int
		analyzer string
		contains string
	}
	wants := []want{
		{6, "testcheck", "forbidden call"},           // no directive
		{10, "testcheck", "forbidden call"},          // malformed directive suppresses nothing...
		{10, "directive", "missing its '-- reason'"}, // ...and is itself reported
		{11, "testcheck", "forbidden call"},          // wrong analyzer name; othercheck did not run, so no unused report
		{12, "testcheck", "forbidden call"},
		{12, "directive", "names no analyzer"},
		{13, "directive", "testcheck suppresses no finding"}, // covers line 14, which has no finding
		{15, "directive", `unknown analyzer "nosuchcheck"`},  // the testcheck name on it is used
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		d := diags[i]
		if d.Pos.Line != w.line || d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.contains) {
			t.Errorf("diag %d = %s, want line %d analyzer %s containing %q", i, d, w.line, w.analyzer, w.contains)
		}
	}

	// Without the driver's registry no name is unknown, and a run of
	// no analyzer reports no directive unused.
	pkg = loadFixture(t)
	diags, err = lint.Run(nil, pkg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses no finding") || strings.Contains(d.Message, "unknown analyzer") {
			t.Errorf("run of no analyzer reported %s", d)
		}
	}
	if len(diags) != 2 {
		t.Errorf("run of no analyzer: got %d diagnostics, want the 2 malformed directives:\n%v", len(diags), diags)
	}
}

func TestModuleRoot(t *testing.T) {
	modPath, modDir, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "thermctl" {
		t.Fatalf("module path = %q, want thermctl", modPath)
	}
	if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err != nil {
		t.Fatalf("module dir %s has no go.mod: %v", modDir, err)
	}
	pkgs, err := lint.ModulePackages(modPath, modDir)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, p := range pkgs {
		found[p] = true
	}
	for _, want := range []string{"thermctl", "thermctl/internal/fan", "thermctl/cmd/thermlint", "thermctl/internal/lint"} {
		if !found[want] {
			t.Errorf("ModulePackages missing %s (got %d packages)", want, len(pkgs))
		}
	}
	for p := range found {
		if strings.Contains(p, "testdata") {
			t.Errorf("ModulePackages included testdata package %s", p)
		}
	}
}
