package callgraph_test

import (
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"thermctl/internal/lint"
	"thermctl/internal/lint/callgraph"
)

// fixture is a two-package module exercising roots, static chains,
// interface resolution across packages, and go-edge skipping.
var fixture = map[string]string{
	"a/a.go": `package a

import "time"

type Actuator interface{ Apply(level int) }

type Ctl struct{ Act Actuator }

func (c *Ctl) OnStep(now int) {
	c.helper()
	c.Act.Apply(1)
	go c.bg()
}

func (c *Ctl) helper() { c.deep() }
func (c *Ctl) deep()   {}
func (c *Ctl) bg()     { c.spawned() }
func (c *Ctl) spawned() {}

// Step is a plain function, not a method: not a root.
func Step() {}

type Txn struct{}

func (t *Txn) ApplyFan(pct float64) {}
func (t *Txn) Commit()              {}

// A sampler sink is a root by signature; a near miss is not.
type Probe struct{}

func (p *Probe) sink(now time.Duration, frame []float64) {}
func (p *Probe) other(now time.Duration, frame []int)    {}
`,
	"b/b.go": `package b

import "m/a"

type Fan struct{}

func (f *Fan) Apply(level int) { spin(level) }

func spin(level int) {}

var _ a.Actuator = (*Fan)(nil)
`,
}

func loadProgram(t *testing.T) *lint.Program {
	t.Helper()
	dir := t.TempDir()
	for name, src := range fixture {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader := lint.NewLoader("m", dir)
	var pkgs []*lint.Package
	for _, path := range []string{"m/a", "m/b"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return lint.NewProgram(loader.Fset(), pkgs)
}

func hotLabels(prog *lint.Program) map[string]*callgraph.Hot {
	out := map[string]*callgraph.Hot{}
	for fn, h := range callgraph.For(prog).HotReach() {
		out[callgraph.Label(fn)] = h
	}
	return out
}

func TestRootsAndCache(t *testing.T) {
	prog := loadProgram(t)
	g := callgraph.For(prog)
	if again := callgraph.For(prog); again != g {
		t.Error("For(prog) did not return the cached graph")
	}

	// A root is hot from itself.
	var roots []string
	for fn, h := range g.HotReach() {
		if h.Root.Fn == fn {
			roots = append(roots, callgraph.Label(fn))
		}
	}
	sort.Strings(roots)
	want := []string{"(*m/a.Ctl).OnStep", "(*m/a.Probe).sink", "(*m/a.Txn).ApplyFan"}
	if strings.Join(roots, ",") != strings.Join(want, ",") {
		t.Errorf("roots = %v, want %v", roots, want)
	}
}

func TestHotReach(t *testing.T) {
	prog := loadProgram(t)
	hot := hotLabels(prog)

	// Static chain: OnStep → helper → deep.
	deep, ok := hot["(*m/a.Ctl).deep"]
	if !ok {
		t.Fatal("deep is not hot")
	}
	wantChain := "(*m/a.Ctl).OnStep → (*m/a.Ctl).helper → (*m/a.Ctl).deep"
	if got := strings.Join(deep.Chain, " → "); got != wantChain {
		t.Errorf("deep chain = %s, want %s", got, wantChain)
	}
	if !strings.Contains(deep.Via(), "reached via") {
		t.Errorf("deep.Via() = %q, want a reached-via suffix", deep.Via())
	}

	// Interface resolution: the Act.Apply call fans out to the concrete
	// (*b.Fan).Apply in the other package, and on through spin.
	spin, ok := hot["m/b.spin"]
	if !ok {
		t.Fatal("spin is not hot: interface call not resolved across packages")
	}
	if spin.Root == nil || callgraph.Label(spin.Root.Fn) != "(*m/a.Ctl).OnStep" {
		t.Errorf("spin root = %v, want (*m/a.Ctl).OnStep", spin.Root)
	}
	wantVia := "(*m/a.Ctl).OnStep → (*m/b.Fan).Apply → m/b.spin"
	if got := strings.Join(spin.Chain, " → "); got != wantVia {
		t.Errorf("spin chain = %s, want %s", got, wantVia)
	}

	// Go-edge skipping: bg runs in a goroutine; neither it nor its
	// callee is synchronously hot.
	for _, label := range []string{"(*m/a.Ctl).bg", "(*m/a.Ctl).spawned"} {
		if _, ok := hot[label]; ok {
			t.Errorf("%s is hot, but it is only reachable through a go statement", label)
		}
	}

	// Non-roots: the plain function Step and the Txn's non-Apply method.
	for _, label := range []string{"m/a.Step", "(*m/a.Txn).Commit"} {
		if _, ok := hot[label]; ok {
			t.Errorf("%s is hot, want cold", label)
		}
	}

	// A root's own Via() is empty: the finding is in the root itself.
	if on := hot["(*m/a.Ctl).OnStep"]; on == nil || on.Via() != "" {
		t.Errorf("OnStep.Via() = %v, want empty", on)
	}
}

// TestHotDecls runs a probe analyzer through lint.Run with the full
// program, checking per-package filtering and source order.
func TestHotDecls(t *testing.T) {
	prog := loadProgram(t)
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"m/a", []string{"OnStep", "helper", "deep", "ApplyFan", "sink"}},
		{"m/b", []string{"Apply", "spin"}},
	} {
		var got []string
		probe := &lint.Analyzer{
			Name: "probe",
			Doc:  "collects hot decls",
			Run: func(pass *lint.Pass) error {
				for _, hd := range callgraph.HotDecls(pass) {
					got = append(got, hd.Decl.Name.Name)
				}
				return nil
			},
		}
		if _, err := lint.Run(prog, prog.Package(tc.path), []*lint.Analyzer{probe}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("HotDecls(%s) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestNodeLookup checks the node index against the type-checked objects.
func TestNodeLookup(t *testing.T) {
	prog := loadProgram(t)
	g := callgraph.For(prog)
	a := prog.Package("m/a")
	obj, _, _ := types.LookupFieldOrMethod(a.Types.Scope().Lookup("Ctl").Type(), true, a.Types, "helper")
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatal("helper method not found")
	}
	n := g.Node(fn)
	if n == nil {
		t.Fatal("no node for (*a.Ctl).helper")
	}
	if len(n.Out) != 1 || callgraph.Label(n.Out[0].Callee.Fn) != "(*m/a.Ctl).deep" {
		t.Errorf("helper edges = %v, want one edge to deep", n.Out)
	}
}
