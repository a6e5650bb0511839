// Package callgraph builds a cross-package static call graph over a
// loaded lint.Program, and computes synchronous reachability from the
// control plane's hot roots: every Step/OnStep method (the per-round
// simulation and controller entry points), every Policy Decide method,
// every RunProgram method (the SPMD execution loop), and the decision
// transaction's Txn.Apply* actuation funnel.
//
// The graph resolves three call shapes and one reference shape:
//
//   - direct calls to package functions and methods (static edges);
//   - interface-method calls, resolved against every concrete type
//     declared in the program that implements the interface (one
//     dynamic edge per implementation) — this is what lets an analyzer
//     follow Binding.OnStep → Policy.Decide → Txn.Apply →
//     Actuator.Apply → FanPort.SetDutyPercent across packages;
//   - calls inside `go` statements, kept as asynchronous edges that
//     reachability skips: a spawned goroutine is not part of the
//     synchronous round;
//   - a function or method used as a value rather than called (a method
//     value, a func passed as a callback or stored in a field), kept as
//     a reference edge. Hot reachability skips it too: taking a func
//     value does not run it. Liveness (the deadcode analyzer) follows
//     it, since the value may be called anywhere.
//
// Analyzers consume the graph through For (the per-program cache) and
// HotDecls (this package's hot-reachable declarations, with the call
// chain from the root for diagnostics), instead of re-implementing
// per-package walkers.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"

	"thermctl/internal/lint"
)

// Node is one declared function or method with a body.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *lint.Package
	// Out holds the resolved call edges, in source order (dynamic edges
	// fan out in sorted implementer order at one site).
	Out []Edge
}

// Edge is one resolved call or function-value reference. A call
// through an interface yields one edge per concrete implementation.
type Edge struct {
	// Callee is the resolved target.
	Callee *Node
	// Go marks a call launched in a goroutine (directly, or the body of
	// a `go func(){...}()` literal). Asynchronous: hot reachability does
	// not traverse it.
	Go bool
	// Ref marks a function or method used as a value, not called here.
	// Hot reachability does not traverse it.
	Ref bool
}

// Hot records why a function is hot: the root it is reachable from and
// the shortest call chain (labels, root first, the function last).
type Hot struct {
	Root  *Node
	Chain []string
}

// Via renders the diagnostic suffix " (reached via a → b)" for
// transitive hits — the chain runs from the root to the function
// containing the finding — and "" when the function is itself a root.
func (h *Hot) Via() string {
	if len(h.Chain) <= 1 {
		return ""
	}
	return " (reached via " + strings.Join(h.Chain, " → ") + ")"
}

// Graph is the program-wide call graph.
type Graph struct {
	nodes map[*types.Func]*Node
	roots []*Node
	// concrete is the type universe interface calls fan out over.
	concrete []*types.Named

	hotOnce sync.Once
	hot     map[*types.Func]*Hot
}

var (
	cacheMu sync.Mutex
	cache   = map[*lint.Program]*Graph{}
)

// For returns the call graph of prog, building it on first use. Graphs
// are cached per program, so every analyzer in a run shares one build.
func For(prog *lint.Program) *Graph {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[prog]; ok {
		return g
	}
	g := build(prog)
	cache[prog] = g
	return g
}

// Node returns the graph node for fn, or nil if fn has no declared body
// in the program.
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// IsRoot reports whether fn is one of the hot roots: a method named
// Step, OnStep, Decide or RunProgram (the SPMD execution loop is as hot
// as the open-loop step — its per-round body runs once per simulation
// step for the whole program), a Utilization method (every workload
// generator is evaluated per node per step inside the sharded phase,
// so the whole generator library must be allocation-free), an Apply*
// method on a type named Txn, or any method shaped like a cluster.Sink
// (tracefile's Writer.AppendFrame among them: trace recording rides
// the step loop within 5% of the untraced step). The sampler calls
// sinks through func values the graph does not follow, and a
// func-literal sink has no declaration to root.
func IsRoot(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Step", "OnStep", "Decide", "RunProgram", "Utilization":
		return true
	}
	if strings.HasPrefix(fn.Name(), "Apply") {
		return recvTypeName(sig) == "Txn"
	}
	in := sig.Params() // the sink shape: func(time.Duration, []float64)
	return in.Len() == 2 && sig.Results().Len() == 0 &&
		in.At(0).Type().String() == "time.Duration" && in.At(1).Type().String() == "[]float64"
}

// recvTypeName returns the bare name of the receiver's named type
// ("Txn" for (*core.Txn)), or "".
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// Label renders fn for call chains, with the module prefix trimmed:
// "(*thermctl/internal/core.TDVFS).OnStep" → "(*core.TDVFS).OnStep".
func Label(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, "thermctl/internal/", "")
	return strings.ReplaceAll(name, "thermctl/", "")
}

// HotReach returns the synchronous hot-reachability map: every function
// reachable from a root without crossing a goroutine spawn, with its
// shortest chain. The map is computed once per graph.
func (g *Graph) HotReach() map[*types.Func]*Hot {
	g.hotOnce.Do(func() {
		hot := map[*types.Func]*Hot{}
		var queue []*Node
		for _, r := range g.roots {
			if _, ok := hot[r.Fn]; !ok {
				hot[r.Fn] = &Hot{Root: r, Chain: []string{Label(r.Fn)}}
				queue = append(queue, r)
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			h := hot[n.Fn]
			for _, e := range n.Out {
				if e.Go || e.Ref {
					continue
				}
				if _, ok := hot[e.Callee.Fn]; ok {
					continue
				}
				chain := make([]string, 0, len(h.Chain)+1)
				chain = append(chain, h.Chain...)
				chain = append(chain, Label(e.Callee.Fn))
				hot[e.Callee.Fn] = &Hot{Root: h.Root, Chain: chain}
				queue = append(queue, e.Callee)
			}
		}
		g.hot = hot
	})
	return g.hot
}

// HotDecl is one hot-reachable declaration of the analyzed package.
type HotDecl struct {
	Decl *ast.FuncDecl
	Hot  *Hot
}

// HotDecls returns the hot-reachable function declarations belonging to
// the pass's package, in source order. This is the entry point for
// hot-path analyzers: iterate, inspect each body, suffix diagnostics
// with Hot.Via().
func HotDecls(pass *lint.Pass) []HotDecl {
	g := For(pass.Prog)
	reach := g.HotReach()
	var out []HotDecl
	for fn, h := range reach {
		n := g.nodes[fn]
		if n == nil || n.Pkg.Types != pass.Pkg {
			continue
		}
		out = append(out, HotDecl{Decl: n.Decl, Hot: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// build constructs the graph: index declarations, collect the concrete
// type universe, then resolve every call site.
func build(prog *lint.Program) *Graph {
	g := &Graph{nodes: map[*types.Func]*Node{}}

	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &Node{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}

	// The concrete-type universe for interface resolution: every
	// package-level named non-interface type in the program, in
	// deterministic (package, name) order.
	var concrete []*types.Named
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	g.concrete = concrete
	for _, n := range g.nodes {
		n.Out = g.Edges(n.Pkg, n.Decl.Body)
	}
	// Map iteration above is fine (each node's edges depend only on its
	// own body), but the stored edge order within a node is source
	// order, set by scan.

	for fn, n := range g.nodes {
		if IsRoot(fn) {
			g.roots = append(g.roots, n)
		}
	}
	sort.Slice(g.roots, func(i, j int) bool {
		a, b := g.roots[i], g.roots[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	return g
}

// Edges resolves the call and reference edges of any syntax of pkg: a
// function body, or a package-level declaration such as a variable's
// initializer (whose function references run or escape at init).
func (g *Graph) Edges(pkg *lint.Package, root ast.Node) []Edge {
	b := &edgeBuilder{g: g, info: pkg.Info, called: map[*ast.Ident]bool{}}
	b.scan(root, false)
	return b.out
}

// edgeBuilder walks one syntax tree resolving call edges.
type edgeBuilder struct {
	g    *Graph
	info *types.Info
	out  []Edge
	// called holds the callee identifiers of resolved calls, so the
	// reference pass does not count them again.
	called map[*ast.Ident]bool
}

// scan visits n, marking calls found under a `go` statement as
// asynchronous. Function-literal bodies are scanned as part of the
// enclosing declaration: a closure defined on the hot path is
// conservatively assumed to run on it.
func (b *edgeBuilder) scan(root ast.Node, inGo bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			b.scan(n.Call, true)
			return false
		case *ast.CallExpr:
			b.resolve(n, inGo)
		case *ast.Ident:
			if !b.called[n] {
				b.reference(n, inGo)
			}
		}
		return true
	})
}

// resolve adds the edge(s) for one call expression.
func (b *edgeBuilder) resolve(call *ast.CallExpr, inGo bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	if fn, ok := b.info.Uses[id].(*types.Func); ok {
		b.called[id] = true
		b.add(Edge{Go: inGo}, fn)
	}
}

// reference adds the edge(s) for a function or method named but not
// called: the identifier of a method value, a method expression, or a
// function passed or stored as a value.
func (b *edgeBuilder) reference(id *ast.Ident, inGo bool) {
	if fn, ok := b.info.Uses[id].(*types.Func); ok {
		b.add(Edge{Go: inGo, Ref: true}, fn)
	}
}

// add resolves e's callee to fn's declaration, or, for an interface
// method, to every implementation.
func (b *edgeBuilder) add(e Edge, fn *types.Func) {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			b.addDynamic(e, fn, iface)
			return
		}
	}
	if callee, ok := b.g.nodes[fn]; ok {
		e.Callee = callee
		b.out = append(b.out, e)
	}
}

// addDynamic fans an interface-method call out to every concrete
// implementation declared in the program.
func (b *edgeBuilder) addDynamic(e Edge, m *types.Func, iface *types.Interface) {
	for _, named := range b.g.concrete {
		impl := implements(named, iface)
		if impl == nil {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), m.Name())
		target, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if callee, ok := b.g.nodes[target]; ok {
			e.Callee = callee
			b.out = append(b.out, e)
		}
	}
}

// implements returns the receiver shape under which named satisfies
// iface (the type itself or a pointer to it), or nil.
func implements(named *types.Named, iface *types.Interface) types.Type {
	if types.Implements(named, iface) {
		return named
	}
	ptr := types.NewPointer(named)
	if types.Implements(ptr, iface) {
		return ptr
	}
	return nil
}
