// Package mutexcallback flags invoking a user-supplied callback while
// a sync.Mutex or sync.RWMutex is held.
//
// The shape is the classic registry deadlock: a structure locks its
// mutex, then calls a closure that re-enters the structure (or another
// subsystem that eventually needs the same lock). The node devices
// sidestep it by holding no locks at all — the BMC's SensorReader
// closures run under the owner's lock that an ipmi.Server takes around
// Handle, and are plain reads that never lock. This analyzer keeps
// every lock-guarded structure that does invoke callbacks honest.
//
// A "callback" is a call through a value of function type that is not
// a declared function or method and not a closure defined locally in
// the same function body: struct fields, parameters and package
// variables of function type are exactly the injection points users
// control.
package mutexcallback

import (
	"go/ast"
	"go/types"

	"thermctl/internal/lint"
)

// Analyzer is the callback-under-lock check.
var Analyzer = &lint.Analyzer{
	Name: "mutexcallback",
	Doc:  "flag user-supplied callbacks invoked while a sync mutex is held",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc walks one function body in source order, tracking which
// mutexes are held. The tracking is lexical and flow-insensitive
// across branches — conservative in the right direction for a gate:
// a lock taken in an if-branch stays "held" for the rest of the
// function unless a matching unlock appears.
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	// Closures defined locally in this function are not user-supplied;
	// collect the identifiers they are bound to.
	local := localClosures(pass, fd)

	held := map[string]bool{} // lock expression text → held
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if recv, op, ok := lockOp(pass, call); ok {
						switch op {
						case "Lock", "RLock":
							held[recv] = true
						case "Unlock", "RUnlock":
							delete(held, recv)
						}
						return false
					}
				}
			case *ast.DeferStmt:
				if recv, op, ok := lockOp(pass, n.Call); ok {
					// defer mu.Unlock() releases only at return: the
					// lock stays held for the remainder of the body.
					_ = recv
					_ = op
					return false
				}
			case *ast.FuncLit:
				// A nested closure body executes later (unless invoked
				// immediately, in which case the CallExpr case has
				// already recorded the lock state); analyze it with the
				// current held set — being called under the lock is the
				// common case for the closures this repo passes around.
				return true
			case *ast.CallExpr:
				if len(held) > 0 {
					if name, ok := callbackCall(pass, n, local); ok {
						pass.Reportf(n.Pos(),
							"callback %s invoked while %s is held; release the lock before calling out (deadlock risk)",
							name, anyKey(held))
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)
}

// anyKey returns one held-lock label for the diagnostic.
func anyKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// lockOp recognizes calls of the form x.Lock / x.RLock / x.Unlock /
// x.RUnlock where x is a sync.Mutex or sync.RWMutex (directly, via
// pointer, or as an embedded field) and returns the receiver's source
// text and the operation name.
func lockOp(pass *lint.Pass, call *ast.CallExpr) (recv, op string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, okFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return exprText(sel.X), sel.Sel.Name, true
}

// exprText renders a (small) receiver expression as a stable key:
// "b.mu", "fs.mu". Falls back to a placeholder for exotic shapes.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return exprText(e.X)
	default:
		return "<lock>"
	}
}

// callbackCall reports whether call invokes a user-suppliable function
// value: a variable, parameter, struct field or package variable of
// function type — excluding declared functions/methods, type
// conversions, and closures defined locally in this function.
func callbackCall(pass *lint.Pass, call *ast.CallExpr, local map[types.Object]bool) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[fun]
		v, ok := obj.(*types.Var)
		if !ok || local[obj] {
			return "", false
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return "", false
		}
		return fun.Name, true
	case *ast.SelectorExpr:
		// Method calls resolve Sel to *types.Func; field accesses of
		// function type resolve to *types.Var.
		obj := pass.TypesInfo.Uses[fun.Sel]
		v, ok := obj.(*types.Var)
		if !ok {
			return "", false
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return "", false
		}
		return exprText(fun), true
	default:
		return "", false
	}
}

// localClosures returns the objects of identifiers that are assigned a
// function literal anywhere in fd — locally defined helpers, not
// injected callbacks.
func localClosures(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if _, ok := rhs.(*ast.FuncLit); ok && i < len(n.Lhs) {
					add(n.Lhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				if _, ok := rhs.(*ast.FuncLit); ok && i < len(n.Names) {
					add(n.Names[i])
				}
			}
		}
		return true
	})
	return out
}
