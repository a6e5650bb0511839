package faults

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermctl/internal/metrics"
)

// State is the folded fault condition of one target at one instant: the
// union of its active episodes. The zero State means "healthy". Booleans
// OR together, rates take the maximum, spike offsets sum, and the worst
// (smallest) degrade factor wins.
type State struct {
	SensorStuck   bool
	SensorDropout bool
	SensorSpikeC  float64
	I2CFaultRate  float64
	I2CNAKRate    float64
	FanStalled    bool
	FanDegrade    float64 // fraction of commanded speed reached; 0 means unimpaired
}

// merge folds one active episode into the state.
func (s State) merge(e Episode) State {
	switch e.Kind {
	case SensorStuck:
		s.SensorStuck = true
	case SensorDropout:
		s.SensorDropout = true
	case SensorSpike:
		s.SensorSpikeC += e.Param
	case I2CFault:
		if e.Rate > s.I2CFaultRate {
			s.I2CFaultRate = e.Rate
		}
	case I2CNAK:
		if e.Rate > s.I2CNAKRate {
			s.I2CNAKRate = e.Rate
		}
	case FanDegrade:
		if s.FanDegrade == 0 || e.Param < s.FanDegrade {
			s.FanDegrade = e.Param
		}
	case FanStall:
		s.FanStalled = true
	}
	return s
}

// Injector is the lock-free handle a device model polls for its current
// fault state. A nil or never-written Injector reads as healthy, so
// device code can hold one unconditionally.
type Injector struct {
	p atomic.Pointer[State]
}

// State returns the current fault state. Safe on a nil receiver.
func (i *Injector) State() State {
	if i == nil {
		return State{}
	}
	if s := i.p.Load(); s != nil {
		return *s
	}
	return State{}
}

// set publishes a new state. A healthy (zero) state is published as a
// nil pointer so the device-side State() poll — which runs on every
// simulation step for every instrumented device — stays a single atomic
// load plus branch, never dereferencing a cold heap allocation. This is
// what keeps the idle fault-plane overhead inside the benchmark bar.
func (i *Injector) set(s State) {
	if s == (State{}) {
		i.p.Store(nil)
		return
	}
	i.p.Store(&s)
}

// Static returns an injector pinned to a fixed state, for unit tests
// that want a fault "always on" without a schedule.
//
//thermlint:allow deadcode -- cross-package test helper: device tests pin a fault state with it
func Static(s State) *Injector {
	i := &Injector{}
	i.set(s)
	return i
}

// Event records one episode edge on the fault timeline.
type Event struct {
	At     time.Duration
	Target string
	Kind   Kind
	Active bool
}

// String renders the event in the fixed timeline format.
func (e Event) String() string {
	edge := "clear"
	if e.Active {
		edge = "begin"
	}
	return fmt.Sprintf("%s %s %s %s", e.At, e.Target, e.Kind, edge)
}

// Plane replays a Plan against a set of injectors. It implements the
// cluster's serial-phase Controller contract: OnStep(now) re-evaluates
// every schedule at simulation time now, publishes the folded State to
// each target's injector, and records episode begin/clear transitions.
// Register the plane before the control daemons so devices see the
// current fault state within the same control round.
type Plane struct {
	plan Plan

	mu     sync.Mutex
	inj    map[string]*Injector
	active map[string][]bool // per schedule target, per episode index
	events []Event
	// started/nextEdge implement the idle fast path: folded states can
	// only change at an episode edge (a Start or an End), so between
	// edges OnStep is a single comparison. This keeps the plane's cost
	// negligible when attached with nothing scheduled — the common case
	// the BenchmarkClusterStepFaults acceptance bar measures.
	started  bool
	nextEdge time.Duration

	activeG     *metrics.Gauge
	transitions *metrics.Counter
}

// NewPlane builds a plane for a validated plan.
func NewPlane(plan Plan) (*Plane, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	p := &Plane{
		plan:   plan,
		inj:    make(map[string]*Injector),
		active: make(map[string][]bool, len(plan.Schedules)),
	}
	for _, s := range plan.Schedules {
		p.inj[s.Target] = &Injector{}
		p.active[s.Target] = make([]bool, len(s.Episodes))
	}
	return p, nil
}

// Plan returns the plan the plane replays.
func (p *Plane) Plan() Plan { return p.plan }

// Injector returns the injector for a target, creating an always-healthy
// one if the plan has no schedule for it. Call at wiring time.
func (p *Plane) Injector(target string) *Injector {
	p.mu.Lock()
	defer p.mu.Unlock()
	inj, ok := p.inj[target]
	if !ok {
		inj = &Injector{}
		p.inj[target] = inj
	}
	return inj
}

// OnStep re-evaluates the plan at simulation time now. It runs in the
// serial controller phase, so the published states are identical for any
// worker count.
func (p *Plane) OnStep(now time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started && now < p.nextEdge {
		return
	}
	p.started = true
	nextEdge := time.Duration(math.MaxInt64)
	nActive := 0
	for _, sch := range p.plan.Schedules {
		st := State{}
		flags := p.active[sch.Target]
		for i, ep := range sch.Episodes {
			on := ep.active(now)
			if on {
				st = st.merge(ep)
				nActive++
			}
			if on != flags[i] {
				flags[i] = on
				//thermlint:allow hotalloc -- episode edges are rare scheduled transitions; the event log is the audit trail
				p.events = append(p.events, Event{
					At: now, Target: sch.Target, Kind: ep.Kind, Active: on,
				})
				p.transitions.Inc()
			}
			if start := time.Duration(ep.Start); now < start && start < nextEdge {
				nextEdge = start
			}
			if end := time.Duration(ep.Start) + time.Duration(ep.Duration); now < end && end < nextEdge {
				nextEdge = end
			}
		}
		p.inj[sch.Target].set(st)
	}
	p.nextEdge = nextEdge
	p.activeG.Set(float64(nActive))
}

// Events returns a copy of the recorded timeline.
func (p *Plane) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// Timeline renders the recorded events one per line — the byte-identical
// artifact the determinism tests compare across seeds and worker counts.
func (p *Plane) Timeline() string {
	events := p.Events()
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// InstrumentMetrics registers the plane's instruments on reg: a gauge of
// currently active episodes and a counter of episode transitions. Wiring
// time only.
func (p *Plane) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	activeG := reg.NewGauge("thermctl_faults_active_episodes",
		"fault episodes currently active across all targets", labels...)
	transitions := reg.NewCounter("thermctl_faults_transitions_total",
		"fault episode begin/clear transitions", labels...)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.activeG = activeG
	p.transitions = transitions
}
