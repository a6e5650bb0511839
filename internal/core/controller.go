package core

import (
	"fmt"
	"time"

	"thermctl/internal/core/window"
)

// Config parameterizes the unified controller.
type Config struct {
	// Pp is the user policy parameter in [1, 100]: small = aggressive
	// temperature-oriented control, large = conservative cost-oriented
	// control.
	Pp int
	// TminC and TmaxC bound the safe operating temperature range used
	// in the index-update coefficient c = (N-1)/(Tmax-Tmin). The
	// paper's platform uses 38 and 82 °C.
	TminC, TmaxC float64
	// SamplePeriod is the temperature sampling interval (paper: 250 ms,
	// i.e. four samples per second).
	SamplePeriod time.Duration
	// Window sizes the two-level history (defaults: 4 and 5).
	Window window.Config
	// FailSafe parameterizes the consecutive-error escalation policy;
	// zero fields take the defaults (see FailSafeConfig).
	FailSafe FailSafeConfig
	// MaxLeadC bounds how far (in °C-equivalent cells) the integrated
	// index may run ahead of or behind the absolute-temperature anchor
	// c·(T−Tmin). The index update is an integrator: on a large load
	// step the temperature keeps rising for tens of seconds after each
	// duty increase (the heatsink is slow), so pure integration winds
	// the index to the array's end and pins the fan at maximum. The
	// lead band keeps the controller proactive — it may run MaxLeadC
	// degrees ahead of the static map — without unbounded windup.
	// Default 7 °C.
	MaxLeadC float64
}

// DefaultConfig returns the paper's controller parameters with the
// given policy.
func DefaultConfig(pp int) Config {
	return Config{
		Pp:           pp,
		TminC:        38,
		TmaxC:        82,
		SamplePeriod: 250 * time.Millisecond,
		Window:       window.Default(),
		FailSafe:     DefaultFailSafeConfig(),
		MaxLeadC:     7,
	}
}

// withDefaults fills zero fields, mirroring the historical NewController
// normalization.
func (cfg Config) withDefaults() Config {
	if cfg.Window.L1Size == 0 {
		cfg.Window = window.Default()
	}
	if cfg.MaxLeadC == 0 {
		cfg.MaxLeadC = 7
	}
	cfg.FailSafe = cfg.FailSafe.withDefaults()
	return cfg
}

// validate rejects unusable ranges.
func (cfg Config) validate() error {
	if cfg.TmaxC <= cfg.TminC {
		return fmt.Errorf("core: Tmax %v must exceed Tmin %v", cfg.TmaxC, cfg.TminC)
	}
	if cfg.SamplePeriod <= 0 {
		return fmt.Errorf("core: non-positive sample period")
	}
	return nil
}

// Controller is the unified dynamic thermal controller of §3.2: one
// temperature stream, one two-level history window, one policy
// parameter, any number of actuators. Since the control-plane
// unification it is a facade over the engine — a Binding hosting the
// CtlArrayPolicy — kept for its stable constructor and observability
// surface. It implements the cluster Controller interface via OnStep.
type Controller struct {
	cfg Config
	b   *Binding
	pol *CtlArrayPolicy
}

// ActuatorBinding attaches an actuator to a controller. Its array has
// NumModes cells for rich mode sets and 2×NumModes for sparse ones (under
// ten modes), so index arithmetic has resolution.
type ActuatorBinding struct {
	Actuator Actuator
}

// NewController builds a controller over the given actuators.
func NewController(cfg Config, read TempReader, bindings ...ActuatorBinding) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if read == nil {
		return nil, fmt.Errorf("core: nil temperature reader")
	}
	if len(bindings) == 0 {
		return nil, fmt.Errorf("core: controller needs at least one actuator")
	}
	cfg = cfg.withDefaults()
	pol, err := NewCtlArrayPolicy(cfg, bindings...)
	if err != nil {
		return nil, err
	}
	acts := make([]Actuator, len(bindings))
	for i, bd := range bindings {
		acts[i] = bd.Actuator
	}
	win := cfg.Window
	b, err := NewBinding(BindingConfig{
		Policy:       pol,
		Read:         read,
		SamplePeriod: cfg.SamplePeriod,
		Window:       &win,
		FailSafe:     cfg.FailSafe,
		Actuators:    acts,
	})
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, b: b, pol: pol}, nil
}

// Binding exposes the engine binding hosting this controller, for
// composition into an Engine (the hybrid coordinator does this).
func (c *Controller) Binding() *Binding { return c.b }

// Policy exposes the hosted ctlarray policy.
func (c *Controller) Policy() *CtlArrayPolicy { return c.pol }

// FailSafeEvents returns a copy of the escalation/recovery event log.
func (c *Controller) FailSafeEvents() []FailSafeEvent { return c.b.FailSafeEvents() }

// Moves returns the number of mode changes applied to actuator i.
func (c *Controller) Moves(i int) uint64 { return c.b.Moves(i) }

// ActuatorStatus is one actuator's view in a Status snapshot.
type ActuatorStatus struct {
	// Name is the actuator's identifier.
	Name string
	// Index is the current control-array cell index.
	Index int
	// Mode is the physical mode the index selects.
	Mode int
	// Moves counts applied mode changes.
	Moves uint64
}

// Status is a point-in-time observability snapshot of the controller.
type Status struct {
	// Pp is the active policy.
	Pp int
	// AvgC is the latest round-average temperature (NaN before the
	// first round).
	AvgC float64
	// DeltaL1 and DeltaL2 are the window's current short/long-horizon
	// variations.
	DeltaL1, DeltaL2 float64
	// Behavior classifies the last round.
	Behavior string
	// HoldFloor reports whether downward moves are being suppressed.
	HoldFloor bool
	// FailSafe reports whether the consecutive-error escalation is
	// holding every actuator at its most effective mode.
	FailSafe bool
	// Errors is the cumulative error count.
	Errors uint64
	// Actuators lists per-actuator state.
	Actuators []ActuatorStatus
}

// Status returns an observability snapshot, for daemons' status
// endpoints and logs.
func (c *Controller) Status() Status {
	win := c.b.Window()
	st := Status{
		Pp:        c.cfg.Pp,
		AvgC:      win.Avg(),
		DeltaL1:   win.DeltaL1(),
		DeltaL2:   win.DeltaL2(),
		Behavior:  win.Classify(window.DefaultClassify()).String(),
		HoldFloor: c.pol.HoldFloor(),
		FailSafe:  c.b.FailSafe(),
		Errors:    c.b.Errors(),
	}
	for i := range c.pol.slots {
		st.Actuators = append(st.Actuators, ActuatorStatus{
			Name:  c.b.Actuator(i).Name(),
			Index: c.pol.Index(i),
			Mode:  c.pol.Mode(i),
			Moves: c.b.Moves(i),
		})
	}
	return st
}

// String renders the snapshot as a single log line.
func (s Status) String() string {
	out := fmt.Sprintf("pp=%d avg=%.2fC dL1=%.2f dL2=%.2f behavior=%s hold=%v errs=%d",
		s.Pp, s.AvgC, s.DeltaL1, s.DeltaL2, s.Behavior, s.HoldFloor, s.Errors)
	if s.FailSafe {
		out += " FAILSAFE"
	}
	for _, a := range s.Actuators {
		out += fmt.Sprintf(" %s[idx=%d mode=%d moves=%d]", a.Name, a.Index, a.Mode, a.Moves)
	}
	return out
}

// SetHoldFloor, while set, blocks index *decreases* (cooling
// reductions); increases stay allowed. The Hybrid coordinator uses it
// to stop the out-of-band knob from relaxing while the in-band knob is
// engaged.
func (c *Controller) SetHoldFloor(hold bool) { c.pol.SetHoldFloor(hold) }

// NextDue forwards the binding's; implements cluster.Scheduled.
func (c *Controller) NextDue() time.Duration { return c.b.NextDue() }

// OnStep samples and, on each completed window round, updates every
// actuator through the hosted ctlarray policy. Call it once per
// simulation step with the current time. Sampling cadence, fail-safe
// degradation and error accounting are the engine's (see
// Binding.OnStep).
func (c *Controller) OnStep(now time.Duration) { c.b.OnStep(now) }
