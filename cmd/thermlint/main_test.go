package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir and returns
// its root. Keys are module-root-relative file names.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// hotModule is a minimal module with one genuine, fixable hotalloc
// finding: a constant fmt.Sprintf in a Step-reachable method. Its main
// reaches every declaration, so deadcode has nothing to report.
func hotModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.21\n",
		"main.go": `package main

import "m/ctl"

func main() {
	c := new(ctl.C)
	c.Step(1)
	println(c.Describe())
}
`,
		"ctl/ctl.go": `package ctl

import "fmt"

// C is a controller with a hot Step.
type C struct{ msg string }

// Step advances the controller.
func (c *C) Step(dt int) {
	c.msg = fmt.Sprintf("steady")
}

// Describe is a cold debug helper; it keeps fmt imported after the
// Step finding's fix is applied.
func (c *C) Describe() string { return fmt.Sprintf("C(%s)", c.msg) }
`,
	})
}

func TestRunLoadFailureIsFatal(t *testing.T) {
	// A package that fails to type-check must fail the whole run with an
	// error naming the package — not be silently skipped, which would
	// let its findings masquerade as a clean run.
	dir := writeModule(t, map[string]string{
		"go.mod":       "module brokenmod\n\ngo 1.21\n",
		"good/good.go": "package good\n\nfunc OK() int { return 1 }\n",
		"bad/bad.go":   "package bad\n\nfunc Broken() int { return undefinedIdent }\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "loading brokenmod/bad") {
		t.Fatalf("stderr does not name the failing package:\n%s", stderr.String())
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, a := range allAnalyzers {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %q:\n%s", a.Name, stdout.String())
		}
	}
}

func TestRunDiffRequiresFix(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-diff"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run -diff = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-diff requires -fix") {
		t.Fatalf("stderr missing -diff guidance:\n%s", stderr.String())
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-checks", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run -checks nope = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nope"`) {
		t.Fatalf("stderr missing unknown-analyzer error:\n%s", stderr.String())
	}
}

func TestRunNoMatchingPackagesIsFatal(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module m\n\ngo 1.21\n",
		"ok/ok.go": "package ok\n\nfunc F() {}\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./typo/..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Fatalf("stderr missing no-match error:\n%s", stderr.String())
	}
}

func TestRunFindingsAndJSON(t *testing.T) {
	dir := hotModule(t)
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "hotalloc:") {
		t.Fatalf("stdout missing hotalloc finding:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(dir, []string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run -json = %d, want 1", code)
	}
	out := stdout.String()
	for _, want := range []string{`"analyzer":"hotalloc"`, `"fixable":true`, `"line":10`} {
		if !strings.Contains(out, want) {
			t.Errorf("-json output missing %s:\n%s", want, out)
		}
	}
}

func TestRunFixDiffAndApply(t *testing.T) {
	dir := hotModule(t)
	src := filepath.Join(dir, "ctl", "ctl.go")

	// Dry run: -fix -diff prints the edit and leaves the file alone.
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-fix", "-diff", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run -fix -diff = %d, want 1 (finding not applied)", code)
	}
	if !strings.Contains(stdout.String(), `"steady"`) {
		t.Fatalf("diff output missing replacement text:\n%s", stdout.String())
	}
	body, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `fmt.Sprintf("steady")`) {
		t.Fatalf("-diff rewrote the file:\n%s", body)
	}

	// Real run: the fix lands and the finding no longer fails the run.
	stdout.Reset()
	stderr.Reset()
	if code := run(dir, []string{"-fix", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -fix = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "fixed 1 file(s)") {
		t.Fatalf("stderr missing fix summary:\n%s", stderr.String())
	}
	body, err = os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `fmt.Sprintf("steady")`) || !strings.Contains(string(body), `c.msg = "steady"`) {
		t.Fatalf("fix not applied:\n%s", body)
	}

	// The fixed module is clean on a fresh run.
	stdout.Reset()
	stderr.Reset()
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("rerun after fix = %d, want 0; stdout:\n%s", code, stdout.String())
	}
}
