// Command thermlint is the repository's domain-aware static-analysis
// gate. It loads the whole module into one program (so analyzers can
// follow calls across package boundaries through the shared call graph
// in internal/lint/callgraph) and runs eleven analyzers:
//
//	deadcode      — no function, exported value or struct field that
//	                no root (main, init, variable initializers, the
//	                root package's API, the bench module) reaches;
//	                code only tests reach counts as dead
//	determinism   — no wall-clock, global math/rand or map-ordered
//	                effects inside the simulation core
//	onstepblock   — no blocking calls reachable from Controller.OnStep
//	actuatorerr   — no silently dropped actuator/i2c/hwmon/IPMI write
//	                errors, including the `_ =` idiom
//	errswallow    — no discarded errors (`_ = err`, bare
//	                `if err != nil { return }`) in Step/OnStep-reachable
//	                code; count, escalate, or propagate instead
//	hotalloc      — no heap allocation (escaping literals, append,
//	                fmt/errors calls, closures, interface boxing) in
//	                Step-reachable code
//	unitsafe      — no mixed-unit arithmetic across //thermlint:unit
//	                tags (milli-°C vs °C, duty counts vs percent,
//	                Hz vs kHz)
//	mutexcallback — no user-supplied callbacks invoked under a sync
//	                mutex
//	shardsafe     — no runtime-mutable package-level state in the
//	                node-model packages stepped in parallel
//	singleowner   — no sync or sync/atomic in the node-model device
//	                packages; the stepping goroutine owns them
//	metricsafe    — no metric registration in Step-reachable code;
//	                register at wiring time, update on the hot path
//
// Usage:
//
//	go run ./cmd/thermlint ./...
//	go run ./cmd/thermlint -checks hotalloc,unitsafe ./internal/...
//	go run ./cmd/thermlint -fix -diff ./...   # preview suggested fixes
//	go run ./cmd/thermlint -fix ./...         # apply them
//	go run ./cmd/thermlint -json ./...        # NDJSON for tooling
//
// Findings are printed as file:line:col: analyzer: message and make the
// process exit 1. With -fix, diagnostics carrying suggested fixes are
// applied atomically per file and do not fail the run; -diff previews
// the edits without writing. -json emits one JSON object per finding
// for scripts/lintannotate.sh and other tooling. Deliberate violations
// carry an allow directive:
//
//	//thermlint:allow <analyzer>[,<analyzer>...] -- <reason>
//	//thermlint:allow -- <reason>   (bare form: suppresses every analyzer)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"thermctl/internal/lint"
	"thermctl/internal/lint/actuatorerr"
	"thermctl/internal/lint/deadcode"
	"thermctl/internal/lint/determinism"
	"thermctl/internal/lint/errswallow"
	"thermctl/internal/lint/hotalloc"
	"thermctl/internal/lint/metricsafe"
	"thermctl/internal/lint/mutexcallback"
	"thermctl/internal/lint/onstepblock"
	"thermctl/internal/lint/shardsafe"
	"thermctl/internal/lint/singleowner"
	"thermctl/internal/lint/unitsafe"
)

var allAnalyzers = []*lint.Analyzer{
	actuatorerr.Analyzer,
	deadcode.Analyzer,
	determinism.Analyzer,
	errswallow.Analyzer,
	hotalloc.Analyzer,
	metricsafe.Analyzer,
	mutexcallback.Analyzer,
	onstepblock.Analyzer,
	shardsafe.Analyzer,
	singleowner.Analyzer,
	unitsafe.Analyzer,
}

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body: it resolves the module containing
// startDir, loads every package of it into one lint.Program, and runs
// the selected analyzers over the packages matching the patterns.
// The return value is the process exit code.
func run(startDir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated analyzer subset to run (default: all)")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source files")
	diff := fs.Bool("diff", false, "with -fix, print the edits as a diff instead of writing files")
	asJSON := fs.Bool("json", false, "emit findings as newline-delimited JSON objects")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range allAnalyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *diff && !*fix {
		fmt.Fprintln(stderr, "thermlint: -diff requires -fix")
		return 2
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "thermlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modPath, modDir, err := lint.ModuleRoot(startDir)
	if err != nil {
		fmt.Fprintln(stderr, "thermlint:", err)
		return 1
	}
	paths, err := lint.ModulePackages(modPath, modDir)
	if err != nil {
		fmt.Fprintln(stderr, "thermlint:", err)
		return 1
	}

	// Load the whole module up front: cross-package analyzers need every
	// package in the program even when only a subset is being reported
	// on. A package that fails to load is fatal — a silent skip would
	// let findings in it masquerade as a clean run.
	loader := lint.NewLoader(modPath, modDir)
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "thermlint: loading %s: %v\n", path, err)
			return 1
		}
		pkgs = append(pkgs, pkg)
	}
	prog := lint.NewProgram(loader.Fset(), pkgs)

	var diags []lint.Diagnostic
	matched := 0
	for _, pkg := range pkgs {
		if !matchAny(patterns, modPath, pkg.Path) {
			continue
		}
		matched++
		active := activeFor(analyzers, pkg.Path)
		if len(active) == 0 {
			continue
		}
		ds, err := lint.Run(prog, pkg, active)
		if err != nil {
			fmt.Fprintln(stderr, "thermlint:", err)
			return 1
		}
		diags = append(diags, ds...)
	}
	if matched == 0 {
		// A typo'd path must not masquerade as a clean run.
		fmt.Fprintf(stderr, "thermlint: patterns %v matched no packages\n", patterns)
		return 1
	}

	fixed := map[string]bool{} // diagnostic key → fix applied
	if *fix {
		changed, skipped, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "thermlint:", err)
			return 1
		}
		for _, d := range skipped {
			fmt.Fprintf(stderr, "thermlint: fix for %s conflicts with an earlier fix; not applied\n", d)
		}
		if *diff {
			for _, file := range sortedKeys(changed) {
				old, err := os.ReadFile(file)
				if err != nil {
					fmt.Fprintln(stderr, "thermlint:", err)
					return 1
				}
				fmt.Fprint(stdout, lint.Diff(relPath(file), old, changed[file]))
			}
		} else {
			if err := lint.WriteFixes(changed); err != nil {
				fmt.Fprintln(stderr, "thermlint:", err)
				return 1
			}
			for _, d := range diags {
				if len(d.Fixes) > 0 && !isSkipped(d, skipped) {
					fixed[d.String()] = true
				}
			}
			if len(changed) > 0 {
				fmt.Fprintf(stderr, "thermlint: fixed %d file(s)\n", len(changed))
			}
		}
	}

	findings := 0
	for _, d := range diags {
		if fixed[d.String()] {
			continue // applied; no longer a failure
		}
		findings++
		if *asJSON {
			writeJSON(stdout, d)
		} else {
			fmt.Fprintln(stdout, rel(d))
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "thermlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// jsonDiag is the NDJSON shape consumed by scripts/lintannotate.sh.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable,omitempty"`
}

func writeJSON(w io.Writer, d lint.Diagnostic) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(jsonDiag{
		File:     relPath(d.Pos.Filename),
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
		Fixable:  len(d.Fixes) > 0,
	})
}

func isSkipped(d lint.Diagnostic, skipped []lint.Diagnostic) bool {
	for _, s := range skipped {
		if s.String() == d.String() {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "usage: thermlint [-checks a,b] [-list] [-fix [-diff]] [-json] [packages]\n\n")
	fmt.Fprintf(w, "Packages are ./... style patterns relative to the module root.\nAnalyzers:\n")
	for _, a := range allAnalyzers {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
	fs.PrintDefaults()
}

func selectAnalyzers(checks string) ([]*lint.Analyzer, error) {
	if checks == "" {
		return allAnalyzers, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range allAnalyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, n := range strings.Split(checks, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// activeFor filters the analyzers applicable to the package path.
func activeFor(analyzers []*lint.Analyzer, path string) []*lint.Analyzer {
	var out []*lint.Analyzer
	for _, a := range analyzers {
		if a.AppliesTo == nil || a.AppliesTo(path) {
			out = append(out, a)
		}
	}
	return out
}

// matchAny reports whether the import path matches one of the ./...
// style patterns.
func matchAny(patterns []string, modPath, path string) bool {
	for _, p := range patterns {
		if matchPattern(p, modPath, path) {
			return true
		}
	}
	return false
}

func matchPattern(pattern, modPath, path string) bool {
	p := strings.TrimPrefix(pattern, "./")
	switch {
	case p == "..." || p == "":
		return true
	case strings.HasSuffix(p, "/..."):
		base := strings.TrimSuffix(p, "/...")
		full := qualify(base, modPath)
		return path == full || strings.HasPrefix(path, full+"/")
	case p == ".":
		return path == modPath
	default:
		return path == qualify(p, modPath)
	}
}

// qualify turns a module-root-relative pattern into a full import path;
// patterns already starting with the module path are kept.
func qualify(p, modPath string) string {
	if p == modPath || strings.HasPrefix(p, modPath+"/") {
		return p
	}
	return modPath + "/" + p
}

// relPath shortens a file name to be relative to the current directory
// where possible.
func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
	}
	return name
}

// rel shortens the diagnostic's file name to be relative to the
// current directory where possible.
func rel(d lint.Diagnostic) string {
	d.Pos.Filename = relPath(d.Pos.Filename)
	return d.String()
}
