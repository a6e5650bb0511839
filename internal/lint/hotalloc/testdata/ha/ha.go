// Package ha exercises the hotalloc analyzer: the Step/OnStep inner
// loop must be allocation-free.
package ha

import (
	"errors"
	"fmt"
	"time"
)

type sink struct{ buf []int }

func consume(v any)              {}
func logf(msg string, vs ...any) {}
func consumePtr(v any)           { _ = v }

var errNak = errors.New("nak")

func apply(m int) error {
	if m < 0 {
		return errNak
	}
	return nil
}
func format(v int) string { return fmt.Sprintf("%d", v) }

type ctl struct {
	out     []int
	last    string
	counter int
	inner   sink
	log     []int
}

// Step with every allocating shape the analyzer knows.
func (c *ctl) Step(dt time.Duration) {
	c.last = fmt.Sprintf("steady") // want `call to fmt.Sprintf formats a new string per round`
	c.last = fmt.Sprint("one")     // want `call to fmt.Sprint formats a new string per round`
	c.out = append(c.out, 1)       // want `append may grow its backing array per round`
	m := make(map[string]int)      // want `make allocates per round`
	_ = m
	p := new(sink) // want `new allocates per round`
	_ = p
	s := &sink{} // want `&.*sink literal escapes to the heap per round`
	_ = s
	xs := []int{1, 2, 3} // want `slice literal allocates per round`
	_ = xs
	c.tick()
}

// tick is reached from Step through ctl.Step; its allocation reports
// the chain.
func (c *ctl) tick() {
	_ = errors.New("hot") // want `call to errors.New constructs a new error per round \(reached via .*Step → .*tick\)`
}

type spawner struct{ out []int }

// Step that builds a closure, spawns a goroutine and boxes arguments.
func (s *spawner) Step(dt time.Duration) {
	f := func() { s.out[0]++ } // want `function literal allocates a closure per round`
	f()
	go s.drain() // want `go statement in hot code allocates a goroutine per round`
	n := len(s.out)
	consume(n)      // want `argument boxes a int into an interface per round`
	logf("grew", n) // want `argument boxes a int into an interface per round`
}

// drain is reached only through a go statement: asynchronous work may
// allocate.
func (s *spawner) drain() {
	s.out = make([]int, 0, 8)
}

type good struct {
	v    int
	dst  []int
	vals []int
}

// Step whose allocations all sit on exempt paths: error-exit branches,
// panic arguments, pointer and constant interface arguments.
func (g *good) Step(dt time.Duration) error {
	if g.v < 0 {
		return fmt.Errorf("negative duty: %d", g.v)
	}
	if err := apply(g.v); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if g.v > 1<<20 {
		panic(fmt.Sprintf("runaway duty %d", g.v))
	}
	consumePtr(&g.dst)
	consume(nil)
	consume(3)
	g.dst = g.dst[:0]
	for i, v := range g.vals {
		g.dst = g.dst[:i+1]
		g.dst[i] = v + g.v
	}
	g.v++
	return nil
}

type allowed struct{ log []int }

// Step with a deliberate, annotated rare-path allocation is suppressed.
func (a *allowed) Step(dt time.Duration) {
	if len(a.log) < cap(a.log) {
		a.log = append(a.log, 1) //thermlint:allow hotalloc -- fixture: rare fail-safe event append
	}
}

// notAStep is not reachable from any hot root: cold-path code may
// allocate freely (wiring, setup, reporting).
func notAStep() string {
	xs := make([]int, 4)
	xs = append(xs, 9)
	return fmt.Sprintf("cold %d", xs[0])
}

// record has a sampler sink's shape: a hot root, reached by no call.
func (c *ctl) record(now time.Duration, frame []float64) {
	c.last = fmt.Sprintf("%v", frame[0]) // want `call to fmt.Sprintf formats a new string per round`
}

// Registry has internal/metrics.Registry's shape: registering a metric
// builds it and grows the registry.
type Registry struct{ names []string }

type Counter struct{ v uint64 }

func (r *Registry) NewCounter(name string) *Counter {
	r.names = append(r.names, name) // want `append may grow its backing array per round \(reached via .*metered\)\.Step → .*lazyInit → .*NewCounter\)`
	return &Counter{}               // want `&.*Counter literal escapes to the heap per round`
}

type metered struct {
	reg    *Registry
	rounds *Counter
}

// Step that registers its counter on first use, through a helper: the
// registration is flagged inside the registry. Register at wiring time.
func (m *metered) Step(dt time.Duration) {
	m.lazyInit()
	m.rounds.v++
}

func (m *metered) lazyInit() {
	if m.rounds == nil {
		m.rounds = m.reg.NewCounter("rounds")
	}
}
