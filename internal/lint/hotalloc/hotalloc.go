// Package hotalloc flags heap allocation in step-reachable code.
//
// The control plane's scaling budget (ROADMAP item 1) assumes the
// per-round inner loop is allocation-free: one closure or fmt call per
// step turns into garbage-collector pressure multiplied by 100k nodes ×
// 20 rounds/s. The analyzer walks the shared cross-package call graph
// (internal/lint/callgraph) from the hot roots (Step, OnStep, Decide,
// Txn.Apply*) and flags, in every synchronously reachable function:
//
//   - composite literals that escape (`&T{...}`) and slice/map literals;
//   - make, new, and growing append;
//   - per-round formatting and error construction (fmt.Sprintf,
//     fmt.Errorf, errors.New, strconv.Format*, …);
//   - function literals (a closure allocates every time it is built —
//     hoist it to wiring time);
//   - goroutine spawns (per-round go statements allocate a stack);
//   - interface boxing at call sites: a concrete non-pointer value
//     passed as an interface parameter is copied to the heap.
//
// Failure paths are exempt: an `if` branch that exits by returning a
// freshly constructed error is not per-round work (errors are rare and
// already counted by the engine), and arguments of panic calls only run
// when the process is dying. Deliberate rare-path allocations (e.g. a
// fail-safe event log append) carry a scoped
// `//thermlint:allow hotalloc -- reason` directive.
//
// `fmt.Sprintf`/`fmt.Sprint` calls whose result is a compile-time
// constant carry a suggested fix (`thermlint -fix`) replacing the call
// with the literal.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"thermctl/internal/lint"
	"thermctl/internal/lint/callgraph"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &lint.Analyzer{
	Name: "hotalloc",
	Doc:  "flag heap allocation (escaping literals, append, fmt/errors calls, closures, boxing) in Step-reachable code",
	Run:  run,
}

// allocFuncs maps types.Func.FullName() values to why the call
// allocates per round.
var allocFuncs = map[string]string{
	"fmt.Sprintf":                    "formats a new string",
	"fmt.Sprint":                     "formats a new string",
	"fmt.Sprintln":                   "formats a new string",
	"fmt.Errorf":                     "constructs a new error",
	"fmt.Appendf":                    "may grow its buffer",
	"errors.New":                     "constructs a new error",
	"errors.Join":                    "constructs a new error",
	"strconv.Itoa":                   "formats a new string",
	"strconv.FormatInt":              "formats a new string",
	"strconv.FormatUint":             "formats a new string",
	"strconv.FormatFloat":            "formats a new string",
	"strconv.Quote":                  "formats a new string",
	"strings.Join":                   "builds a new string",
	"strings.Repeat":                 "builds a new string",
	"strings.ToUpper":                "builds a new string",
	"strings.ToLower":                "builds a new string",
	"strings.Split":                  "builds a new slice",
	"strings.Fields":                 "builds a new slice",
	"bytes.Join":                     "builds a new slice",
	"bytes.Clone":                    "copies its input",
	"sort.Slice":                     "boxes its closure and slice",
	"sort.SliceStable":               "boxes its closure and slice",
	"(*strings.Builder).WriteString": "may grow its buffer",
	"(*bytes.Buffer).WriteString":    "may grow its buffer",
	"(*bytes.Buffer).Write":          "may grow its buffer",
}

func run(pass *lint.Pass) error {
	for _, hd := range callgraph.HotDecls(pass) {
		w := &walker{pass: pass, via: hd.Hot.Via()}
		w.inspect(hd.Decl.Body)
	}
	return nil
}

type walker struct {
	pass *lint.Pass
	via  string
}

// inspect walks one hot function body. Error-exit branches and panic
// arguments are skipped (see the package comment).
func (w *walker) inspect(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			w.pass.Reportf(n.Pos(), "go statement in hot code allocates a goroutine per round%s; run the worker at wiring time", w.via)
			return false
		case *ast.IfStmt:
			if isErrorExit(w.pass.TypesInfo, n.Body) {
				// Walk the init, condition and else branch, not the body.
				if n.Init != nil {
					w.inspect(n.Init)
				}
				w.inspect(n.Cond)
				if n.Else != nil {
					w.inspect(n.Else)
				}
				return false
			}
			return true
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op.String() == "&" {
				w.pass.Reportf(n.Pos(), "&%s literal escapes to the heap per round%s; hoist it to wiring time or reuse a field", typeLabel(w.pass.TypesInfo, lit), w.via)
				// The literal's elements may still contain calls worth
				// checking; keep descending.
			}
			return true
		case *ast.CompositeLit:
			tv, ok := w.pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				w.pass.Reportf(n.Pos(), "slice literal allocates per round%s; preallocate at wiring time", w.via)
			case *types.Map:
				w.pass.Reportf(n.Pos(), "map literal allocates per round%s; preallocate at wiring time", w.via)
			}
			return true
		case *ast.FuncLit:
			w.pass.Reportf(n.Pos(), "function literal allocates a closure per round%s; hoist it to wiring time", w.via)
			return true
		case *ast.CallExpr:
			return w.checkCall(n)
		}
		return true
	})
}

// checkCall flags allocating calls; the return value tells ast.Inspect
// whether to descend into the call's children.
func (w *walker) checkCall(call *ast.CallExpr) bool {
	info := w.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.pass.Reportf(call.Pos(), "make allocates per round%s; preallocate at wiring time", w.via)
			case "new":
				w.pass.Reportf(call.Pos(), "new allocates per round%s; hoist it to wiring time", w.via)
			case "append":
				w.pass.Reportf(call.Pos(), "append may grow its backing array per round%s; preallocate capacity at wiring time", w.via)
			case "panic":
				// Crash path: the argument (often fmt.Sprintf) never
				// runs in a healthy process.
				return false
			}
			return true
		}
	}

	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return true
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return true
	}
	if why, ok := allocFuncs[fn.FullName()]; ok {
		if fix, ok := w.constFormatFix(call, fn); ok {
			w.pass.ReportFix(call.Pos(), fix, "call to %s %s per round%s; precompute the constant", fn.FullName(), why, w.via)
		} else {
			w.pass.Reportf(call.Pos(), "call to %s %s per round%s; hoist it to wiring time or a rare path", fn.FullName(), why, w.via)
		}
		return true
	}
	w.checkBoxing(call, fn)
	return true
}

// constFormatFix builds the suggested fix for fmt.Sprintf/fmt.Sprint
// calls whose value is a compile-time constant: a Sprintf with a
// verb-free format and no arguments, or a Sprint of one string literal,
// is replaced by the literal itself.
func (w *walker) constFormatFix(call *ast.CallExpr, fn *types.Func) (lint.SuggestedFix, bool) {
	name := fn.FullName()
	if name != "fmt.Sprintf" && name != "fmt.Sprint" {
		return lint.SuggestedFix{}, false
	}
	if len(call.Args) != 1 {
		return lint.SuggestedFix{}, false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return lint.SuggestedFix{}, false
	}
	if name == "fmt.Sprintf" && strings.Contains(lit.Value, "%") {
		return lint.SuggestedFix{}, false
	}
	return lint.SuggestedFix{
		Edits: []lint.TextEdit{{
			Pos:     call.Pos(),
			End:     call.End(),
			NewText: lit.Value,
		}},
	}, true
}

// checkBoxing flags concrete non-pointer values passed where the callee
// declares an interface parameter: the value is copied to the heap to
// build the interface word.
func (w *walker) checkBoxing(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				continue // passing a ready slice; no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := w.pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
			continue // constants and nil are boxed statically
		}
		switch tv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: the interface word is the pointer
		}
		w.pass.Reportf(arg.Pos(), "argument boxes a %s into an interface per round%s; pass a pointer kept at wiring time",
			tv.Type.String(), w.via)
	}
}

// isErrorExit reports whether the block ends by returning a freshly
// constructed (non-nil-literal) error — the failure-branch shape whose
// allocations are not per-round work.
func isErrorExit(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	ret, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, res := range ret.Results {
		if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		tv, ok := info.Types[res]
		if !ok || tv.Type == nil {
			continue
		}
		if types.Implements(tv.Type, errIface) {
			return true
		}
	}
	return false
}

func typeLabel(info *types.Info, lit *ast.CompositeLit) string {
	if tv, ok := info.Types[lit]; ok && tv.Type != nil {
		s := tv.Type.String()
		s = strings.ReplaceAll(s, "thermctl/internal/", "")
		return strings.ReplaceAll(s, "thermctl/", "")
	}
	return "composite"
}
