// Package deadcode reports code that nothing in the program reaches:
// functions and methods no root calls or takes as a value, exported
// package-level values no live code reads, and struct fields that are
// never read or never written except with their zero value.
//
// Liveness is computed once per program over the shared call graph
// (internal/lint/callgraph), following call, interface and
// function-value reference edges alike. The roots are:
//
//   - every main and init function;
//   - every package-level variable initializer (it runs at init);
//   - the exported API of the root package, which thermctl.go calls
//     the supported public surface;
//   - every function of the bench module, so what the benchmark
//     harness calls stays;
//   - methods that satisfy an interface declared outside the module
//     (String, Error, MarshalJSON, ServeHTTP, Write, ...): the standard
//     library calls them through its own interfaces, which the graph
//     cannot see;
//   - declarations carrying a scoped //thermlint:allow deadcode
//     directive, so a deliberate survivor keeps its callees alive.
//
// Test files are not part of the program, so code that only tests
// reach is dead. Fields with a struct tag count as read and written
// (encoding/json reaches them by reflection), and embedded fields are
// never reported: they exist for their promoted members.
package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"thermctl/internal/lint"
	"thermctl/internal/lint/callgraph"
)

// Analyzer is the dead-code check.
var Analyzer = &lint.Analyzer{
	Name:      name,
	Doc:       "report functions, exported values and struct fields that no root reaches (code only tests reach is dead)",
	AppliesTo: InScope,
	Run:       run,
}

const name = "deadcode"

// apiPackage is the root package whose exported API is a root.
const apiPackage = "thermctl"

// InScope reports whether findings are reported in the package: all of
// the module except the bench harness, which is a root instead.
func InScope(pkgPath string) bool { return !isBench(pkgPath) }

func isBench(pkgPath string) bool {
	return pkgPath == apiPackage+"/bench" || strings.HasPrefix(pkgPath, apiPackage+"/bench/")
}

func run(pass *lint.Pass) error {
	lv := liveFor(pass.Prog)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if ok && d.Body != nil && !lv.funcs[fn] {
					pass.Reportf(d.Name.Pos(), "%s is dead: no root reaches it", callgraph.Label(fn))
				}
			case *ast.GenDecl:
				reportGen(pass, lv, d)
			}
		}
	}
	return nil
}

// reportGen reports the dead exported values and fields of one
// declaration.
func reportGen(pass *lint.Pass, lv *liveness, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch spec := spec.(type) {
		case *ast.ValueSpec:
			for _, id := range spec.Names {
				obj := pass.TypesInfo.Defs[id]
				if obj != nil && id.IsExported() && !lv.values[obj] {
					pass.Reportf(id.Pos(), "exported %s %s is dead: no root reads it", kind(obj), id.Name)
				}
			}
		case *ast.TypeSpec:
			ast.Inspect(spec.Type, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if field.Tag != nil || len(field.Names) == 0 {
						continue
					}
					for _, id := range field.Names {
						v, ok := pass.TypesInfo.Defs[id].(*types.Var)
						if !ok || id.Name == "_" {
							continue
						}
						switch read, written := lv.read[v], lv.written[v]; {
						case !read && !written:
							pass.Reportf(id.Pos(), "field %s.%s is dead: never read or written", spec.Name.Name, id.Name)
						case !read:
							pass.Reportf(id.Pos(), "field %s.%s is never read", spec.Name.Name, id.Name)
						case !written:
							pass.Reportf(id.Pos(), "field %s.%s is never written except with its zero value", spec.Name.Name, id.Name)
						}
					}
				}
				return true
			})
		}
	}
}

func kind(obj types.Object) string {
	if _, ok := obj.(*types.Const); ok {
		return "const"
	}
	return "var"
}

// liveness is the program's reachable set.
type liveness struct {
	funcs  map[*types.Func]bool
	values map[types.Object]bool
	read   map[*types.Var]bool
	// written holds the fields stored with a value other than the
	// constant zero value.
	written map[*types.Var]bool
}

var (
	cacheMu sync.Mutex
	cache   = map[*lint.Program]*liveness{}
)

func liveFor(prog *lint.Program) *liveness {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if lv, ok := cache[prog]; ok {
		return lv
	}
	lv := newWalker(prog).walk()
	cache[prog] = lv
	return lv
}

// walker computes liveness by a worklist over functions.
type walker struct {
	prog  *lint.Program
	g     *callgraph.Graph
	lv    *liveness
	queue []*callgraph.Node
	// external holds the methods that satisfy an interface declared
	// outside the module.
	external map[*types.Func]bool
}

func newWalker(prog *lint.Program) *walker {
	return &walker{
		prog: prog,
		g:    callgraph.For(prog),
		lv: &liveness{
			funcs:   map[*types.Func]bool{},
			values:  map[types.Object]bool{},
			read:    map[*types.Var]bool{},
			written: map[*types.Var]bool{},
		},
		external: externalMethods(prog),
	}
}

func (w *walker) walk() *liveness {
	for _, pkg := range w.prog.Pkgs {
		allowed := lint.Allowed(pkg, name)
		keep := func(pos token.Pos) bool { return allowed(w.prog.Fset.Position(pos)) }
		api := pkg.Path == apiPackage
		bench := isBench(pkg.Path)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					if bench || keep(d.Name.Pos()) || isEntry(pkg, d) || api && exportedAPI(fn) || w.external[fn] {
						w.markFunc(fn)
					}
				case *ast.GenDecl:
					w.rootGen(pkg, d, api || bench, keep)
				}
			}
		}
	}
	for len(w.queue) > 0 {
		n := w.queue[0]
		w.queue = w.queue[1:]
		for _, e := range n.Out {
			w.markFunc(e.Callee.Fn)
		}
		w.scan(n.Pkg, n.Decl)
	}
	return w.lv
}

// isEntry reports whether d is run by the Go runtime: main in a main
// package, or any init.
func isEntry(pkg *lint.Package, d *ast.FuncDecl) bool {
	if d.Recv != nil {
		return false
	}
	return d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main"
}

// exportedAPI reports whether fn is an exported function, or an
// exported method of an exported type, of the API package.
func exportedAPI(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Exported()
}

// rootGen roots the package-level declarations of d: every variable
// initializer and constant value, every value of a root package, and
// every allowed value or field.
func (w *walker) rootGen(pkg *lint.Package, d *ast.GenDecl, rootPkg bool, keep func(token.Pos) bool) {
	for _, spec := range d.Specs {
		switch spec := spec.(type) {
		case *ast.ValueSpec:
			for _, id := range spec.Names {
				if rootPkg || keep(id.Pos()) {
					w.markValue(pkg.Info.Defs[id])
				}
			}
			// A constant's value counts as a use of what it names.
			if d.Tok == token.VAR {
				for _, e := range w.g.Edges(pkg, spec) {
					w.markFunc(e.Callee.Fn)
				}
			}
			w.scan(pkg, spec)
		case *ast.TypeSpec:
			// An allow on the type keeps all of its fields.
			all := keep(spec.Name.Pos())
			ast.Inspect(spec.Type, func(n ast.Node) bool {
				if field, ok := n.(*ast.Field); ok {
					for _, id := range field.Names {
						if v, ok := pkg.Info.Defs[id].(*types.Var); ok && (all || keep(id.Pos())) {
							w.lv.read[v], w.lv.written[v] = true, true
						}
					}
				}
				return true
			})
		}
	}
}

func (w *walker) markFunc(fn *types.Func) {
	fn = fn.Origin()
	if w.lv.funcs[fn] {
		return
	}
	w.lv.funcs[fn] = true
	if n := w.g.Node(fn); n != nil {
		w.queue = append(w.queue, n)
	}
}

func (w *walker) markValue(obj types.Object) { w.lv.values[obj] = true }

// scan records the value and field uses in one live declaration.
func (w *walker) scan(pkg *lint.Package, root ast.Node) {
	info := pkg.Info
	// stores holds the field selectors an assignment stores to, with
	// whether the stored value is the constant zero value. A selector
	// not in it is read.
	stores := map[*ast.SelectorExpr]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					zero := len(n.Rhs) == len(n.Lhs) && isZero(info, n.Rhs[i])
					w.store(info, stores, l, zero)
				} else {
					w.modify(info, l) // op-assignment: read and written
				}
			}
		case *ast.IncDecStmt:
			w.modify(info, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				w.modify(info, n.X) // the address may be written through
			}
		case *ast.SliceExpr:
			if _, isArray := info.TypeOf(n.X).Underlying().(*types.Array); isArray {
				w.modify(info, n.X) // the slice aliases the array
			}
		case *ast.CompositeLit:
			w.compositeWrites(info, n)
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil {
				switch s.Kind() {
				case types.FieldVal:
					if _, stored := stores[n]; !stored {
						w.lv.read[s.Obj().(*types.Var)] = true
					}
				case types.MethodVal:
					// A pointer method on an addressable value takes
					// its address implicitly.
					if sig := s.Obj().Type().(*types.Signature); !s.Indirect() && isPointer(sig.Recv().Type()) {
						w.modify(info, n.X)
					}
				}
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Var:
				if isPackageLevel(obj) {
					w.markValue(obj)
				}
			case *types.Const:
				if isPackageLevel(obj) {
					w.markValue(obj)
				}
			}
		}
		return true
	})
}

// store records an assignment to e: the field it names is stored to,
// with zero telling whether the value is the constant zero value, and
// every enclosing value field is modified in place.
func (w *walker) store(info *types.Info, stores map[*ast.SelectorExpr]bool, e ast.Expr, zero bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		w.modify(info, e)
		return
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	stores[sel] = zero
	if !zero {
		w.lv.written[s.Obj().(*types.Var)] = true
	}
	w.modify(info, sel.X)
}

// modify records that e is written in place (an op-assignment, ++/--,
// an address taken, a pointer method called): the fields along its
// access path through values, not pointers, count as written.
func (w *walker) modify(info *types.Info, e ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			s := info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			w.lv.written[s.Obj().(*types.Var)] = true
			if s.Indirect() {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, isArray := info.TypeOf(x.X).Underlying().(*types.Array); !isArray {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

// compositeWrites records the fields a struct literal stores a
// non-zero value into.
func (w *walker) compositeWrites(info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		if p, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			st, ok = p.Elem().Underlying().(*types.Struct)
		}
		if !ok {
			return
		}
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, _ := kv.Key.(*ast.Ident)
			if v, ok := info.Uses[key].(*types.Var); ok && !isZero(info, kv.Value) {
				w.lv.written[v] = true
			}
			continue
		}
		if i < st.NumFields() && !isZero(info, elt) {
			w.lv.written[st.Field(i)] = true
		}
	}
}

// isZero reports whether e is a constant zero value or nil.
func isZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	switch tv.Value.String() {
	case "0", "false", `""`:
		return true
	}
	return false
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// externalMethods returns the module's methods that satisfy an
// interface declared outside the module: one imported by a module
// package, the predeclared error, or the shapes package errors tests
// for.
func externalMethods(prog *lint.Program) map[*types.Func]bool {
	var ifaces []*types.Interface
	seen := map[*types.TypeName]bool{}
	addIface := func(tn *types.TypeName) {
		if seen[tn] {
			return
		}
		seen[tn] = true
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").(*types.TypeName))
	// errors.Is, As and Unwrap test for these through anonymous
	// interfaces.
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		if tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src); err == nil {
			ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, imp := range pkg.Types.Imports() {
			if prog.Package(imp.Path()) != nil {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn)
				}
			}
		}
	}

	out := map[*types.Func]bool{}
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || named.NumMethods() == 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			declared := map[string]*types.Func{}
			for i := 0; i < named.NumMethods(); i++ {
				declared[named.Method(i).Name()] = named.Method(i)
			}
			for _, it := range ifaces {
				if declared[it.Method(0).Name()] == nil {
					continue
				}
				if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if m := declared[it.Method(i).Name()]; m != nil {
						out[m] = true
					}
				}
			}
		}
	}
	return out
}
