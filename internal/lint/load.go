package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("thermctl/internal/fan").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives caches the package's allow directives and their use;
	// lint.Run updates it, so one package is not run concurrently.
	directives []*Directive
}

// Loader parses and type-checks packages of one module from source,
// resolving standard-library imports through go/importer's source
// importer and module-internal imports recursively. It needs no module
// proxy, no export data and no build cache, which keeps thermlint
// usable in hermetic build environments.
type Loader struct {
	fset       *token.FileSet
	modulePath string
	moduleDir  string
	std        types.ImporterFrom
	pkgs       map[string]*Package // import path → loaded package
	loading    map[string]bool     // cycle guard
}

// NewLoader returns a loader for the module rooted at moduleDir with
// the given module path. An empty modulePath loads stand-alone package
// directories that import only the standard library (the linttest
// case).
func NewLoader(modulePath, moduleDir string) *Loader {
	// Force a pure-Go view of the standard library: the source importer
	// cannot preprocess cgo files, and packages like net have complete
	// Go fallbacks.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		modulePath: modulePath,
		moduleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// dirFor maps an import path inside the module to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(path, l.modulePath)
	rel = strings.TrimPrefix(rel, "/")
	return filepath.Join(l.moduleDir, filepath.FromSlash(rel))
}

// Load parses and type-checks the package with the given module import
// path (or, with an empty module path, treats path as a directory).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := path
	if l.modulePath != "" {
		dir = l.dirFor(path)
	}
	p, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDir parses and type-checks the sources in dir as the package with
// the given import path, without consulting the module mapping. It is
// the entry point for test fixtures.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// buildCtx is the build context used to honor build constraints when
// listing sources. Cgo is off to match the loader's pure-Go view of the
// world (see NewLoader).
var buildCtx = func() build.Context {
	c := build.Default
	c.CgoEnabled = false
	return c
}()

// goSources lists the non-test Go files of dir that survive build
// constraints (//go:build lines and GOOS/GOARCH file suffixes for the
// host platform), sorted. A file excluded by its constraints is
// invisible to the loader, exactly as it is to the go tool.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		match, err := buildCtx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", filepath.Join(dir, name), err)
		}
		if !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackages walks the module rooted at moduleDir and returns the
// import paths of every package containing Go sources, sorted.
// testdata trees, hidden directories and underscore-prefixed
// directories are skipped, as the go tool does.
func ModulePackages(modulePath, moduleDir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(moduleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := goSources(p)
			if err != nil {
				return err
			}
			if len(names) == 0 {
				return nil
			}
			rel, err := filepath.Rel(moduleDir, p)
			if err != nil {
				return err
			}
			if rel == "." {
				out = append(out, modulePath)
			} else {
				out = append(out, modulePath+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// ModuleRoot walks upward from dir to the nearest go.mod and returns
// the module path and root directory.
func ModuleRoot(dir string) (modulePath, moduleDir string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}
