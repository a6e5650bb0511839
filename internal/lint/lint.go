// Package lint is a miniature static-analysis framework for this
// repository's domain-specific invariants: simulation determinism,
// non-blocking control loops, checked actuator writes, unit-tagged
// arithmetic and allocation-free step paths.
//
// It deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer / Pass / Diagnostic) so the analyzers could be ported to a
// multichecker verbatim, but it is self-contained: the build
// environment for this repository is hermetic (no module proxy), so
// the framework is built only on the standard library's go/ast,
// go/types and go/importer packages.
//
// Findings can be suppressed with an allow directive placed on the
// flagged line or alone on the line directly above it:
//
//	//thermlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// It suppresses only the named analyzers. A directive is itself
// reported, under the analyzer name "directive", when it has no reason
// or names no analyzer (it then suppresses nothing), when it names an
// analyzer the driver does not register, and when an analyzer it names
// ran on the package and it suppressed none of that analyzer's
// findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description, shown by `thermlint -help`.
	Doc string
	// AppliesTo, when non-nil, restricts the driver to packages whose
	// import path it accepts. Tests bypass it and exercise Run directly.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Program is the whole set of packages loaded for one lint run. It is
// the shared substrate for interprocedural analyses: the call-graph
// layer (internal/lint/callgraph) and the unit-tag table both key their
// caches on the *Program identity.
type Program struct {
	Fset *token.FileSet
	// Pkgs holds every loaded package, sorted by import path.
	Pkgs []*Package

	byPath map[string]*Package
}

// NewProgram assembles a program from loaded packages sharing one
// file set.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{Fset: fset, Pkgs: pkgs, byPath: map[string]*Package{}}
	for _, p := range pkgs {
		prog.byPath[p.Path] = p
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog
}

// Package returns the loaded package with the given import path, or
// nil.
func (prog *Program) Package(path string) *Package { return prog.byPath[path] }

// Pass carries one package's parsed and type-checked representation to
// an analyzer, plus the whole-program view for interprocedural checks.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole program this package was loaded into. Never nil:
	// single-package runs get a singleton program.
	Prog *Program

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InPackages returns an AppliesTo predicate accepting the module's
// packages at or under one of the prefixes, each an import path
// relative to the module ("internal/fan").
func InPackages(prefixes ...string) func(pkgPath string) bool {
	return func(pkgPath string) bool {
		rel := strings.TrimPrefix(pkgPath, "thermctl/")
		for _, p := range prefixes {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				return true
			}
		}
		return false
	}
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics, sorted by position: allow directives have been
// applied, and faulty or unused directives reported. When known is
// non-nil, a directive naming an analyzer it rejects is reported too.
// AppliesTo is NOT consulted here — that is driver policy (see the
// thermlint command). A nil prog wraps pkg in a singleton program.
func Run(prog *Program, pkg *Package, analyzers []*Analyzer, known func(name string) bool) ([]Diagnostic, error) {
	if prog == nil {
		prog = NewProgram(pkg.Fset, []*Package{pkg})
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Prog:      prog,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = applyDirectives(pkg, diags, analyzers, known)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Directive is one parsed //thermlint:allow comment.
type Directive struct {
	pos   token.Position
	names []string
	// fault says why the directive suppresses nothing; empty when it
	// is well-formed.
	fault string
	// alone reports whether the comment is the only thing on its line,
	// in which case it covers the following line too.
	alone bool
	// used holds the analyzers whose findings it suppressed.
	used map[string]bool
}

// Use records that d suppressed a finding of the named analyzer.
func (d *Directive) Use(analyzer string) { d.used[analyzer] = true }

const directivePrefix = "thermlint:allow"

// directives returns the allow directives of pkg, parsed on first use
// and kept on the package so that their use accumulates across
// analyzers.
func directives(pkg *Package) []*Directive {
	if pkg.directives == nil {
		pkg.directives = parseDirectives(pkg)
	}
	return pkg.directives
}

// parseDirectives extracts the allow directives of every file. The
// result is non-nil.
func parseDirectives(pkg *Package) []*Directive {
	out := []*Directive{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				names, reason, found := strings.Cut(rest, "--")
				d := &Directive{
					pos: pkg.Fset.Position(c.Pos()),
					names: strings.FieldsFunc(names, func(r rune) bool {
						return r == ',' || r == ' ' || r == '\t'
					}),
					used: map[string]bool{},
				}
				switch {
				case !found || strings.TrimSpace(reason) == "":
					d.fault = "is missing its '-- reason'"
				case len(d.names) == 0:
					d.fault = "names no analyzer"
				}
				d.alone = d.pos.Column == 1 || onlyCommentOnLine(pkg, c)
				out = append(out, d)
			}
		}
	}
	return out
}

// onlyCommentOnLine reports whether c starts its line (ignoring
// indentation), i.e. there is no code before it.
func onlyCommentOnLine(pkg *Package, c *ast.Comment) bool {
	pos := pkg.Fset.Position(c.Pos())
	tf := pkg.Fset.File(c.Pos())
	if tf == nil {
		return false
	}
	lineStart := tf.LineStart(pos.Line)
	// The file's source is not retained; approximate by checking that
	// no declaration/statement token position falls between the line
	// start and the comment. Walking every file token is overkill —
	// instead we compare columns: a comment at column 1..8 on its own
	// line is treated as standalone, and trailing comments (after code)
	// start at higher columns in gofmt'd code. To stay exact we walk
	// the AST for nodes on the same line before the comment.
	for _, f := range pkg.Files {
		if pkg.Fset.File(f.Pos()) != tf {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || found {
				return false
			}
			if n.Pos() >= lineStart && n.Pos() < c.Pos() && pkg.Fset.Position(n.Pos()).Line == pos.Line {
				switch n.(type) {
				case *ast.Comment, *ast.CommentGroup, *ast.File:
				default:
					found = true
				}
				return false
			}
			return true
		})
		if found {
			return false
		}
	}
	return true
}

// Allowed returns the well-formed allow directive in pkg that names
// the analyzer and covers pos, or nil. It does not mark the directive
// used: the caller calls Use once the directive has kept a finding
// from being reported. An analyzer whose findings propagate (a kept
// dead function keeps its callees alive) asks it directly to tell a
// deliberate survivor from the rest.
func Allowed(pkg *Package, analyzer string, pos token.Position) *Directive {
	for _, d := range directives(pkg) {
		if d.fault == "" && d.pos.Filename == pos.Filename &&
			(d.pos.Line == pos.Line || d.alone && d.pos.Line+1 == pos.Line) &&
			slices.Contains(d.names, analyzer) {
			return d
		}
	}
	return nil
}

// applyDirectives filters diags through the allow directives and
// appends a "directive" diagnostic for each faulty one, each one
// naming an analyzer known rejects, and each name of an analyzer in
// ran whose findings the directive never suppressed.
func applyDirectives(pkg *Package, diags []Diagnostic, ran []*Analyzer, known func(string) bool) []Diagnostic {
	var out []Diagnostic
	for _, dg := range diags {
		if d := Allowed(pkg, dg.Analyzer, dg.Pos); d != nil {
			d.Use(dg.Analyzer)
			continue
		}
		out = append(out, dg)
	}
	report := func(d *Directive, format string, args ...any) {
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
	}
	for _, d := range directives(pkg) {
		if d.fault != "" {
			report(d, "thermlint:allow directive %s; it suppresses nothing", d.fault)
			continue
		}
		for _, n := range d.names {
			switch {
			case known != nil && !known(n):
				report(d, "thermlint:allow names unknown analyzer %q", n)
			case !d.used[n] && slices.ContainsFunc(ran, func(a *Analyzer) bool { return a.Name == n }):
				report(d, "thermlint:allow %s suppresses no finding; delete it", n)
			}
		}
	}
	return out
}
