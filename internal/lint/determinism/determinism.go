// Package determinism flags constructs that break bit-for-bit
// reproducibility of the simulation: wall-clock time, the global
// math/rand source, and ranging over maps (whose iteration order is
// randomized by the runtime).
//
// The simulator must be driven only by internal/simclock and
// internal/rng — the paper's experiments (Δt_L1/Δt_L2 history windows,
// the Pp→mode mapping of Eq. (1)) are validated against exact traces,
// and a single wall-clock read or map-ordered output makes runs
// uncomparable.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"thermctl/internal/lint"
)

// Analyzer is the determinism check.
var Analyzer = &lint.Analyzer{
	Name:      "determinism",
	Doc:       "forbid wall-clock time, global math/rand and map-iteration-ordered effects in simulation packages",
	AppliesTo: lint.InPackages(scopePrefixes...),
	Run:       run,
}

// scopePrefixes are the import-path prefixes (after "thermctl/") the
// driver applies this analyzer to: the deterministic simulation core,
// the scenario layer (whose wiring order fixes metric identity,
// controller attachment order, and — through the workload plane's
// spec factory and extends composition — which seeded generator every
// node gets), the workload generator library itself (a per-node
// Utilization stream must be a pure function of seed and time), and
// the experiment/clustersim binaries whose outputs are compared
// trace-for-trace. Device emulation (i2c, ipmi, hwmon, adt7467) and
// offline tooling (trace, lint) are excluded; they are either
// exercised behind the deterministic core or post-process its outputs
// with their own sorting.
var scopePrefixes = []string{
	"internal/acpi",
	"internal/baseline",
	"internal/cluster",
	"internal/config",
	"internal/core",
	"internal/cpu",
	"internal/cpufreq",
	"internal/cstates",
	"internal/experiment",
	"internal/fan",
	"internal/faults",
	"internal/hotspot",
	"internal/node",
	"internal/power",
	"internal/rack",
	"internal/report",
	"internal/rng",
	"internal/sensor",
	"internal/simclock",
	"internal/thermal",
	"internal/tracefile",
	"internal/workload",
	"cmd/experiments",
	"cmd/clustersim",
}

// forbiddenTime are the time package functions that read or wait on the
// wall clock.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRand are the math/rand constructors that do not touch the
// global source; everything else package-level is forbidden.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
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
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n, enclosingFuncBody(stack))
			}
			return true
		})
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal on the traversal stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Body
		case *ast.FuncLit:
			return n.Body
		}
	}
	return nil
}

func checkSelector(pass *lint.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are fine; only package-level functions matter
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s reads or waits on the wall clock; drive the simulation from internal/simclock instead",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s uses the global math/rand source; use a seeded internal/rng stream instead",
				fn.Pkg().Path(), fn.Name())
		}
	}
}

func checkRange(pass *lint.Pass, rng *ast.RangeStmt, encl *ast.BlockStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitive(pass, rng, encl) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is nondeterministic; collect and sort the keys before ranging")
}

// orderInsensitive reports whether the loop visibly cannot leak
// iteration order. Two shapes qualify:
//
//   - pure re-keying: every statement assigns only into maps (or the
//     blank identifier), as in copying one map into another;
//   - collect-then-sort: statements may additionally append into
//     slices, provided the enclosing function calls into package sort
//     (or slices) after the loop — the canonical deterministic map
//     walk.
func orderInsensitive(pass *lint.Pass, rng *ast.RangeStmt, encl *ast.BlockStmt) bool {
	body := rng.Body
	if len(body.List) == 0 {
		return true
	}
	usesAppend := false
	for _, st := range body.List {
		asg, ok := st.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, lhs := range asg.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if idx, ok := lhs.(*ast.IndexExpr); ok {
				tv, ok := pass.TypesInfo.Types[idx.X]
				if ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						continue
					}
				}
				return false
			}
			// A slice variable is acceptable only for `x = append(x, …)`.
			if _, ok := lhs.(*ast.Ident); ok && len(asg.Rhs) == 1 && isAppendCall(asg.Rhs[0]) {
				usesAppend = true
				continue
			}
			return false
		}
	}
	if !usesAppend {
		return true
	}
	return encl != nil && sortCallAfter(pass, encl, rng.End())
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// sortCallAfter reports whether body contains a call into package sort
// or slices positioned after pos.
func sortCallAfter(pass *lint.Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Pos() <= pos {
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
				found = true
			}
		}
		return true
	})
	return found
}
