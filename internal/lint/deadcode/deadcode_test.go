package deadcode_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermctl/internal/lint"
	"thermctl/internal/lint/deadcode"
	"thermctl/internal/lint/linttest"
)

func TestDeadcode(t *testing.T) {
	linttest.Run(t, "testdata/dc", deadcode.Analyzer)
}

// module is a three-package tree under the real module path: the
// root package's exported API and every bench function are roots, and
// bench is never reported on.
var module = map[string]string{
	"api.go": `package thermctl

import "thermctl/internal/dev"

// Public is supported API: a root.
func Public() int { return dev.ForAPI() }

func private() int { return 1 }
`,
	"internal/dev/dev.go": `package dev

func ForAPI() int { return 1 }

func ForBench() int { return 2 }

func Nobody() int { return 3 }
`,
	"bench/bench.go": `package bench

import "thermctl/internal/dev"

func measure() int { return dev.ForBench() }
`,
}

func TestModuleRoots(t *testing.T) {
	dir := t.TempDir()
	for name, src := range module {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader := lint.NewLoader("thermctl", dir)
	var pkgs []*lint.Package
	for _, path := range []string{"thermctl", "thermctl/internal/dev", "thermctl/bench"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := lint.NewProgram(loader.Fset(), pkgs)
	var got []string
	for _, pkg := range prog.Pkgs {
		if !deadcode.Analyzer.AppliesTo(pkg.Path) {
			continue
		}
		diags, err := lint.Run(prog, pkg, []*lint.Analyzer{deadcode.Analyzer}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			got = append(got, d.Message)
		}
	}
	want := []string{
		"thermctl.private is dead: no root reaches it",
		"dev.Nobody is dead: no root reaches it",
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want %d", got, len(want))
	}
	for i := range want {
		if !strings.HasSuffix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want suffix %q", i, got[i], want[i])
		}
	}
}
