// Package shardsafe verifies that the node-model packages — everything
// a node.Node.Step call can touch — keep no package-level mutable
// state.
//
// Cluster.Step shards node advancement across persistent worker
// goroutines, and its correctness contract is strong: parallel
// execution must be byte-identical to serial for every worker count.
// That holds precisely because a node's step reads and writes only that
// node's own state. A package-level variable that is written at runtime
// breaks the contract twice over — it is a data race between shards,
// and even with a lock it would make results depend on shard scheduling
// order. The analyzer therefore flags, in the model packages:
//
//   - assignments (including indexed, field and pointer-indirect
//     writes) whose target is a package-level variable;
//   - taking the address of a package-level variable, which lets a
//     write escape the analyzer's sight;
//   - pointer-receiver method calls on a package-level variable (a
//     sync.Mutex's Lock mutates the variable).
//
// Writes inside func init are exempt: init runs before any worker
// exists, so a variable initialized there and never written again is
// effectively immutable shared state (like the error sentinels in
// hwmon and i2c, which are assigned only at declaration).
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"thermctl/internal/lint"
)

// Analyzer is the shard-safety check.
var Analyzer = &lint.Analyzer{
	Name:      "shardsafe",
	Doc:       "forbid runtime-mutable package-level state in the node-model packages stepped in parallel",
	AppliesTo: lint.InPackages(scopePrefixes...),
	Run:       run,
}

// scopePrefixes are the packages whose code runs inside the cluster's
// parallel phase: node.Node.Step's full call graph — which since the
// declarative workload plane includes every generator's Utilization
// method, evaluated per node inside the shard — the cluster and
// rack layers that orchestrate it, and — since the hierarchical step
// loop moved node-local control into the sharded phase
// (Cluster.AddNodeController) — the controller packages whose policies
// run per node: the core engine and the baseline daemons it hosts.
// Offline tooling is out of scope entirely.
var scopePrefixes = []string{
	"internal/acpi",
	"internal/adt7467",
	"internal/baseline",
	"internal/cluster",
	"internal/core",
	"internal/cpu",
	"internal/cpufreq",
	"internal/cstates",
	"internal/fan",
	"internal/faults",
	"internal/hwmon",
	"internal/i2c",
	"internal/node",
	"internal/power",
	"internal/rack",
	"internal/rng",
	"internal/sensor",
	"internal/simclock",
	"internal/thermal",
	"internal/tracefile",
	"internal/workload",
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !inRuntimeFunc(stack) {
				// Top-level declarations (including var initializers)
				// and func init bodies run before any worker exists;
				// state they establish and never touch again is
				// effectively immutable.
				return true
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					check(pass, lhs, "written")
				}
			case *ast.IncDecStmt:
				check(pass, n.X, "written")
			case *ast.RangeStmt:
				check(pass, n.Key, "written")
				check(pass, n.Value, "written")
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					check(pass, n.X, "has its address taken")
				}
			case *ast.CallExpr:
				checkPointerMethod(pass, n)
			}
			return true
		})
	}
	return nil
}

// inRuntimeFunc reports whether the traversal position is inside code
// that can execute after workers exist: any function body except func
// init's own statements. Function literals always count as runtime
// code — even one built inside init is typically a callback invoked
// later.
func inRuntimeFunc(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return !(n.Recv == nil && n.Name.Name == "init")
		case *ast.FuncLit:
			return true
		}
	}
	return false
}

// check reports e if its write target resolves to a package-level
// variable (of any package — mutating another package's global from
// model code is just as unsafe).
func check(pass *lint.Pass, e ast.Expr, what string) {
	v := targetVar(pass, e)
	if v == nil {
		return
	}
	pass.Reportf(e.Pos(),
		"package-level variable %s %s at runtime; state reachable from Node.Step must be per-node for parallel cluster stepping",
		v.Name(), what)
}

// targetVar walks to the root of an lvalue expression and returns the
// package-level variable it denotes, or nil. Index, field and pointer
// indirections are followed: writing an element of a package-level map
// or through a field of a package-level struct mutates that variable's
// reachable state.
func targetVar(pass *lint.Pass, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		return pkgLevelVar(pass.TypesInfo.ObjectOf(e))
	case *ast.SelectorExpr:
		if v := pkgLevelVar(pass.TypesInfo.ObjectOf(e.Sel)); v != nil {
			return v // qualified reference: pkg.Var
		}
		return targetVar(pass, e.X)
	case *ast.IndexExpr:
		return targetVar(pass, e.X)
	case *ast.StarExpr:
		return targetVar(pass, e.X)
	case *ast.ParenExpr:
		return targetVar(pass, e.X)
	}
	return nil
}

// pkgLevelVar returns obj as a package-scoped variable, or nil.
func pkgLevelVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// checkPointerMethod flags pointer-receiver method calls whose receiver
// chain is rooted at a package-level variable: mu.Lock(), cache.Store,
// registry.register() — each mutates the variable through the implicit
// &receiver.
func checkPointerMethod(pass *lint.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
		return // value receivers (and interface methods) cannot mutate the variable
	}
	v := targetVar(pass, sel.X)
	if v == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"pointer-receiver call %s.%s mutates package-level variable %s; state reachable from Node.Step must be per-node for parallel cluster stepping",
		v.Name(), fn.Name(), v.Name())
}
