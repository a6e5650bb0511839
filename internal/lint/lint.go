// Package lint is a miniature static-analysis framework for this
// repository's domain-specific invariants: simulation determinism,
// non-blocking control loops, checked actuator writes, and
// callback-under-lock deadlock shapes.
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
//	//thermlint:allow -- <reason>
//
// The scoped form suppresses only the named analyzers; the bare form
// (no analyzer names) suppresses every analyzer on the line. The reason
// is mandatory in both forms: a directive without one is itself
// reported (under the analyzer name "directive") and suppresses
// nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
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

// TextEdit is one replacement of the source range [Pos, End) with
// NewText, in the pass's file set.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// SuggestedFix is one automatic remediation for a diagnostic: a set of
// textual edits applied together.
type SuggestedFix struct {
	Edits []TextEdit
}

// Edit is a resolved TextEdit: byte offsets into a named file.
type Edit struct {
	File       string
	Start, End int
	NewText    string
}

// Fix is a resolved SuggestedFix, carried on the Diagnostic.
type Fix struct {
	Edits []Edit
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fixes holds the suggested remediations (usually zero or one).
	Fixes []Fix
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

// ReportFix records a finding at pos carrying a suggested fix. Edits
// are resolved to byte offsets immediately, so appliers need only the
// diagnostics.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	var rf Fix
	for _, e := range fix.Edits {
		start := p.Fset.Position(e.Pos)
		end := p.Fset.Position(e.End)
		rf.Edits = append(rf.Edits, Edit{
			File:    start.Filename,
			Start:   start.Offset,
			End:     end.Offset,
			NewText: e.NewText,
		})
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    []Fix{rf},
	})
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics, sorted by position: allow directives have been
// applied, and malformed directives reported. AppliesTo is NOT
// consulted here — that is driver policy (see Driver.Run). A nil prog
// wraps pkg in a singleton program.
func Run(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
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
	diags = applyDirectives(pkg, diags)
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

// directive is one parsed //thermlint:allow comment.
type directive struct {
	pos       token.Position
	analyzers map[string]bool
	hasReason bool
	// alone reports whether the comment is the only thing on its line,
	// in which case it covers the following line instead.
	alone bool
}

const directivePrefix = "thermlint:allow"

// parseDirectives extracts the allow directives of every file.
func parseDirectives(pkg *Package) []directive {
	var out []directive
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
				d := directive{
					pos:       pkg.Fset.Position(c.Pos()),
					analyzers: map[string]bool{},
					hasReason: found && strings.TrimSpace(reason) != "",
				}
				for _, n := range strings.FieldsFunc(names, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					d.analyzers[n] = true
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

// Allowed returns a predicate reporting whether a well-formed allow
// directive in pkg suppresses the named analyzer at a position. An
// analyzer whose findings propagate (a kept dead function keeps its
// callees alive) asks it to tell a deliberate survivor from the rest.
func Allowed(pkg *Package, analyzer string) func(token.Position) bool {
	_, allowed := allowTable(parseDirectives(pkg))
	return func(pos token.Position) bool {
		m := allowed[pos.Filename][pos.Line]
		return m[analyzer] || m[allowAll]
	}
}

// applyDirectives filters diags through the allow directives and
// appends a "directive" diagnostic for each malformed one.
func applyDirectives(pkg *Package, diags []Diagnostic) []Diagnostic {
	out, allowed := allowTable(parseDirectives(pkg))
	for _, dg := range diags {
		if m := allowed[dg.Pos.Filename]; m != nil && (m[dg.Pos.Line][dg.Analyzer] || m[dg.Pos.Line][allowAll]) {
			continue
		}
		out = append(out, dg)
	}
	return out
}

// allowTable indexes the well-formed directives as
// allowed[file][line][analyzer] and returns a "directive" diagnostic
// for each malformed one.
func allowTable(dirs []directive) (out []Diagnostic, allowed map[string]map[int]map[string]bool) {
	allowed = map[string]map[int]map[string]bool{}
	add := func(file string, line int, names map[string]bool) {
		if allowed[file] == nil {
			allowed[file] = map[int]map[string]bool{}
		}
		if allowed[file][line] == nil {
			allowed[file][line] = map[string]bool{}
		}
		for n := range names {
			allowed[file][line][n] = true
		}
	}
	for _, d := range dirs {
		if !d.hasReason {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: "directive",
				Message:  "thermlint:allow directive is missing its '-- reason'; it suppresses nothing",
			})
			continue
		}
		if len(d.analyzers) == 0 {
			// Bare form: suppress every analyzer on the covered line(s).
			d.analyzers = map[string]bool{allowAll: true}
		}
		line := d.pos.Line
		add(d.pos.Filename, line, d.analyzers)
		if d.alone {
			add(d.pos.Filename, line+1, d.analyzers)
		}
	}
	return out, allowed
}

// allowAll is the internal marker for a bare allow directive. The "*"
// name cannot collide with a real analyzer (names are identifiers).
const allowAll = "*"

// ApplyFixes merges the suggested fixes of diags into their files'
// current on-disk content and returns the new content per file.
// Overlapping edits are resolved first-come (by diagnostic order);
// later conflicting fixes are dropped and reported in skipped.
func ApplyFixes(diags []Diagnostic) (changed map[string][]byte, skipped []Diagnostic, err error) {
	type span struct{ start, end int }
	taken := map[string][]span{}
	edits := map[string][]Edit{}
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		fix := d.Fixes[0]
		conflict := false
		for _, e := range fix.Edits {
			for _, s := range taken[e.File] {
				if e.Start < s.end && s.start < e.End {
					conflict = true
				}
			}
		}
		if conflict {
			skipped = append(skipped, d)
			continue
		}
		for _, e := range fix.Edits {
			taken[e.File] = append(taken[e.File], span{e.Start, e.End})
			edits[e.File] = append(edits[e.File], e)
		}
	}
	changed = map[string][]byte{}
	for file, es := range edits {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: applying fixes: %w", err)
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Start > es[j].Start })
		for _, e := range es {
			if e.Start < 0 || e.End > len(src) || e.Start > e.End {
				return nil, nil, fmt.Errorf("lint: fix edit out of range in %s [%d,%d)", file, e.Start, e.End)
			}
			src = append(src[:e.Start], append([]byte(e.NewText), src[e.End:]...)...)
		}
		changed[file] = src
	}
	return changed, skipped, nil
}

// WriteFixes writes each fixed file atomically: the new content lands
// in a temp file in the same directory and replaces the original with
// a rename, so a crash mid-run never leaves a half-written source file.
func WriteFixes(changed map[string][]byte) error {
	files := make([]string, 0, len(changed))
	for f := range changed {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		tmp, err := os.CreateTemp(filepath.Dir(file), ".thermlint-fix-*")
		if err != nil {
			return fmt.Errorf("lint: writing fixes: %w", err)
		}
		if _, err := tmp.Write(changed[file]); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("lint: writing fixes: %w", err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("lint: writing fixes: %w", err)
		}
		if err := os.Rename(tmp.Name(), file); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("lint: writing fixes: %w", err)
		}
	}
	return nil
}

// Diff renders a minimal old→new hunk for one fixed file: the common
// prefix and suffix lines are trimmed and the changed middle printed
// with -/+ markers. Good enough for `-fix -diff` dry runs; not a patch
// format.
func Diff(name string, oldSrc, newSrc []byte) string {
	oldLines := strings.SplitAfter(string(oldSrc), "\n")
	newLines := strings.SplitAfter(string(newSrc), "\n")
	pre := 0
	for pre < len(oldLines) && pre < len(newLines) && oldLines[pre] == newLines[pre] {
		pre++
	}
	oldTail, newTail := len(oldLines), len(newLines)
	for oldTail > pre && newTail > pre && oldLines[oldTail-1] == newLines[newTail-1] {
		oldTail--
		newTail--
	}
	if pre == oldTail && pre == newTail {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s\n+++ %s\n@@ line %d @@\n", name, name, pre+1)
	for _, l := range oldLines[pre:oldTail] {
		b.WriteString("-" + strings.TrimSuffix(l, "\n") + "\n")
	}
	for _, l := range newLines[pre:newTail] {
		b.WriteString("+" + strings.TrimSuffix(l, "\n") + "\n")
	}
	return b.String()
}
