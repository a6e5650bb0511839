package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"thermctl/internal/core/window"
	"thermctl/internal/metrics"
)

// This file is the control engine: the one sample → two-level window →
// decide → apply pipeline every controller in this repository runs on.
// The paper's claim is that thermal control is *one* loop — a
// temperature stream, a history window, a decision law, and any set of
// actuators — and the engine makes that literal: sampling cadence,
// fail-safe escalation, retry bookkeeping, error counting and the
// generic metrics hooks live here exactly once, while the decision law
// is a pluggable Policy. Every controller is a policy on a Binding: the
// dynamic fan array and tDVFS (wrapped by the Controller and TDVFS
// types, see controller.go and tdvfs.go), the tach watchdog
// (watchdog.go), and the baselines of internal/baseline — static map,
// constant duty, CPUSPEED and PID — whose constructors return the
// binding itself. The hybrid coordinator is an Engine of two bindings
// (hybrid.go).

// Policy is the pluggable decision layer of the control engine: the
// strategy that turns the binding's window/sample state into actuator
// commands. Decide is invoked once per completed history-window round
// (or once per sample for windowless bindings), never while the
// fail-safe holds. Policies issue every actuation through the
// transaction so the engine's shared error accounting sees it.
//
// A policy may additionally implement EscalatePolicy,
// FailSafeApplyPolicy or ReleasePolicy to observe the engine's
// fail-safe edges.
type Policy interface {
	// Decide runs one control decision against tx.
	Decide(tx *Txn)
}

// EscalatePolicy is an optional Policy extension: OnEscalate fires once
// when the engine's fail-safe engages, letting the policy reposition
// its internal state (the ctlarray policy pins every index to the
// array's end).
type EscalatePolicy interface {
	OnEscalate()
}

// FailSafeApplyPolicy is an optional Policy extension: OnFailSafeApplied
// fires when an escalated actuation lands, with the slot and the mode
// applied (the threshold policy records the frequency floor as its
// current mode so Engaged() holds throughout).
type FailSafeApplyPolicy interface {
	OnFailSafeApplied(slot, mode int)
}

// ReleasePolicy is an optional Policy extension: OnRelease fires once
// when the fail-safe releases (the threshold policy re-arms its
// decision cooldown).
type ReleasePolicy interface {
	OnRelease()
}

// DutyApplier is the continuous-command escape hatch for actuators
// whose policy computes a physical setting directly instead of a
// discrete mode (the static fan map emits a duty in percent). Discrete
// modes remain the unified representation; Txn.ApplyDuty routes
// through this interface with the same error accounting as Txn.Apply.
type DutyApplier interface {
	ApplyDuty(pct float64) error
}

// FanDutyActuator adapts a FanPort as a single-mode actuator with a
// continuous duty command: ApplyDuty commands an arbitrary duty (the
// static map, the constant pin, the PID output). Its one mode is also
// the fail-safe target, so Apply commands full duty — the most
// effective setting, as the Actuator ordering contract requires.
type FanDutyActuator struct {
	Port FanPort
}

// Name implements Actuator.
func (f *FanDutyActuator) Name() string { return "fan" }

// NumModes implements Actuator.
func (f *FanDutyActuator) NumModes() int { return 1 }

// Apply implements Actuator.
func (f *FanDutyActuator) Apply(int) error { return f.Port.SetDutyPercent(100) }

// ApplyDuty implements DutyApplier.
func (f *FanDutyActuator) ApplyDuty(pct float64) error { return f.Port.SetDutyPercent(pct) }

// bindingMetrics bundles the engine-generic instrument handles. Every
// handle is nil-safe; facades install their legacy metric names at
// wiring time (see metrics.go), so an uninstrumented binding pays one
// predictable branch per event.
type bindingMetrics struct {
	// rounds counts completed history-window rounds (one decision
	// opportunity each).
	rounds *metrics.Counter
	// modeTransitions counts applied actuator mode changes.
	modeTransitions *metrics.Counter
	// errors counts failed sensor reads and actuations.
	errors *metrics.Counter
	// escalations/recoveries count fail-safe edges; failSafe is 1 while
	// the escalation holds the actuators at their most effective mode.
	escalations *metrics.Counter
	recoveries  *metrics.Counter
	failSafe    *metrics.Gauge
}

// slot is one actuator bound into a Binding, with the engine-owned
// bookkeeping that used to be copied into every controller: applied
// move count and the fail-safe retry flag.
type slot struct {
	act   Actuator
	moves uint64
	// fsRetry marks a fail-safe escalation whose Apply has not yet
	// succeeded; it is retried on every subsequent sample.
	fsRetry bool
}

// BindingConfig assembles one Binding.
type BindingConfig struct {
	// Policy is the decision law. Required.
	Policy Policy
	// Read samples the temperature. A nil reader skips the engine's
	// sampling stage entirely (the policy gathers its own inputs, like
	// the utilization-driven cpuspeed baseline); the fail-safe pipeline
	// is then inert because it re-qualifies on read outcomes.
	Read TempReader
	// SamplePeriod is the sampling cadence; zero decides on every step
	// (the constant-fan baseline pins its duty from the first step).
	SamplePeriod time.Duration
	// Window, when non-nil, sizes the two-level history; Decide then
	// fires once per completed round. Nil decides on every sample.
	Window *window.Config
	// FailSafe parameterizes the consecutive-error escalation; zero
	// fields take the defaults, Disable opts out (the baselines keep
	// their historical count-and-skip behaviour).
	FailSafe FailSafeConfig
	// Actuators are the bound techniques, in slot order.
	Actuators []Actuator
}

// Binding is one policy bound to its actuators on the engine pipeline.
// It implements the cluster Controller interface via OnStep.
type Binding struct {
	pol    Policy
	read   TempReader
	period time.Duration
	win    *window.Window
	fs     FailSafeConfig
	slots  []*slot
	next   time.Duration

	// errs is atomic: daemons read Errors() from their -listen
	// goroutines while OnStep writes from the control loop.
	errs atomic.Uint64

	// fail-safe degradation state (see FailSafeConfig). Read and
	// actuation failures are counted separately: reads fail once per
	// sample, actuations only when a decision moves a mode, and a run
	// of either kind must escalate.
	consecReadErrs  int
	consecApplyErrs int
	cleanSamples    int
	failSafe        bool
	fsEvents        []FailSafeEvent

	// tx is the per-round decision transaction, hosted here so handing
	// it to Policy.Decide (an interface call) does not force a heap
	// allocation every sampled round.
	tx Txn

	mt bindingMetrics
}

// NewBinding builds a binding. The policy is required; everything else
// degrades gracefully (see BindingConfig).
func NewBinding(cfg BindingConfig) (*Binding, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: binding needs a policy")
	}
	b := &Binding{
		pol:    cfg.Policy,
		read:   cfg.Read,
		period: cfg.SamplePeriod,
		fs:     cfg.FailSafe.withDefaults(),
	}
	if cfg.Window != nil {
		b.win = window.New(*cfg.Window)
	}
	if b.period > 0 {
		b.next = b.period
	}
	for _, a := range cfg.Actuators {
		b.slots = append(b.slots, &slot{act: a})
	}
	return b, nil
}

// Policy returns the bound decision law.
func (b *Binding) Policy() Policy { return b.pol }

// Window exposes the binding's history window (read-only use:
// classification, diagnostics). Nil for windowless bindings.
func (b *Binding) Window() *window.Window { return b.win }

// Errors returns the count of failed sensor reads or actuations. Safe
// to call concurrently with the control loop.
func (b *Binding) Errors() uint64 { return b.errs.Load() }

// FailSafe reports whether the fail-safe escalation is currently
// holding every actuator at its most effective mode.
func (b *Binding) FailSafe() bool { return b.failSafe }

// FailSafeEvents returns a copy of the escalation/recovery event log.
func (b *Binding) FailSafeEvents() []FailSafeEvent {
	out := make([]FailSafeEvent, len(b.fsEvents))
	copy(out, b.fsEvents)
	return out
}

// Moves returns the number of mode changes applied through slot i.
func (b *Binding) Moves(i int) uint64 { return b.slots[i].moves }

// Actuator returns the actuator bound at slot i.
func (b *Binding) Actuator(i int) Actuator { return b.slots[i].act }

// Slots returns the number of bound actuators.
func (b *Binding) Slots() int { return len(b.slots) }

// NextDue reports the earliest time at which OnStep acts: the next
// sample time when the binding is gated by a sampling period, 0 (due
// every step) when it is not. It moves only inside OnStep. Implements
// cluster.Scheduled, so the cluster skips the node-local sweep on
// steps where every binding would return at its period gate.
func (b *Binding) NextDue() time.Duration {
	if b.period > 0 {
		return b.next
	}
	return 0
}

// due reports whether OnStep at now passes the sampling gate.
func (b *Binding) due(now time.Duration) bool {
	return b.period <= 0 || now >= b.next
}

// OnStep runs the engine pipeline once: gate on the sampling cadence,
// read, maintain the fail-safe state machine, feed the history window,
// and hand completed rounds to the policy. Implements the cluster
// Controller interface.
//
// Error handling is the fail-safe degradation policy: a failed read (or
// actuation) is counted, and EscalateErrors consecutive failures drive
// every actuator to its most effective mode — a blind controller must
// cool maximally, not skip rounds while the die cooks. The escalation
// releases after RecoverSamples consecutive clean samples, after which
// the window has fresh data and normal control resumes.
func (b *Binding) OnStep(now time.Duration) {
	if !b.due(now) {
		return
	}
	if b.period > 0 {
		b.next += b.period
	}
	b.tx = Txn{b: b, now: now, sample: math.NaN()}
	if b.read != nil {
		t, err := b.read()
		if err != nil {
			b.errs.Add(1)
			b.mt.errors.Inc()
			b.cleanSamples = 0
			b.consecReadErrs++
			if b.consecReadErrs >= b.fs.EscalateErrors {
				b.escalate(now)
			}
			if b.failSafe {
				b.applyFailSafe()
			}
			return
		}
		b.consecReadErrs = 0
		b.tx.sample = t
		if b.failSafe {
			// Hold the escalated modes while re-qualifying the sensor;
			// keep the window warm so control resumes from fresh
			// history.
			b.applyFailSafe()
			b.cleanSamples++
			if b.cleanSamples >= b.fs.RecoverSamples && !b.fsPending() {
				b.release(now)
			}
			if b.win != nil {
				b.win.Add(t)
			}
			return
		}
		if b.win != nil {
			if !b.win.Add(t) {
				return
			}
			b.mt.rounds.Inc()
		}
	}
	b.pol.Decide(&b.tx)
}

// escalate enters the fail-safe hold: every actuator is driven to its
// most effective mode until the escalation releases.
func (b *Binding) escalate(now time.Duration) {
	if b.failSafe || b.fs.Disable {
		return
	}
	b.failSafe = true
	b.cleanSamples = 0
	//thermlint:allow hotalloc -- escalations are rare fault transitions, not per-round work; the log is the audit trail
	b.fsEvents = append(b.fsEvents, FailSafeEvent{At: now, Engaged: true})
	b.mt.escalations.Inc()
	b.mt.failSafe.SetBool(true)
	for _, s := range b.slots {
		s.fsRetry = true
	}
	if p, ok := b.pol.(EscalatePolicy); ok {
		p.OnEscalate()
	}
}

// fsPending reports whether any escalated Apply has not landed yet.
func (b *Binding) fsPending() bool {
	for _, s := range b.slots {
		if s.fsRetry {
			return true
		}
	}
	return false
}

// applyFailSafe drives every actuator whose escalation has not stuck
// yet to its most effective mode, retrying on later samples until the
// write lands (the bus may be failing too). The most effective mode is
// NumModes()-1 by the Actuator ordering contract — and the ctlarray
// fill guarantees the array's last cell maps to it, so the generic
// target and the array-indexed one coincide.
func (b *Binding) applyFailSafe() {
	for i, s := range b.slots {
		if !s.fsRetry {
			continue
		}
		mode := s.act.NumModes() - 1
		if err := s.act.Apply(mode); err != nil {
			b.errs.Add(1)
			b.mt.errors.Inc()
			continue
		}
		s.fsRetry = false
		s.moves++
		b.mt.modeTransitions.Inc()
		if p, ok := b.pol.(FailSafeApplyPolicy); ok {
			p.OnFailSafeApplied(i, mode)
		}
	}
}

// release ends the fail-safe hold; the policy's own dynamics pull the
// actuators back to proportionate modes on the following rounds.
func (b *Binding) release(now time.Duration) {
	b.failSafe = false
	b.cleanSamples = 0
	b.consecApplyErrs = 0
	//thermlint:allow hotalloc -- recoveries are rare fault transitions, not per-round work; the log is the audit trail
	b.fsEvents = append(b.fsEvents, FailSafeEvent{At: now, Engaged: false})
	b.mt.recoveries.Inc()
	b.mt.failSafe.SetBool(false)
	if p, ok := b.pol.(ReleasePolicy); ok {
		p.OnRelease()
	}
}

// applyErr records a failed actuation and escalates on a run of them.
func (b *Binding) applyErr(now time.Duration) {
	b.errs.Add(1)
	b.mt.errors.Inc()
	b.consecApplyErrs++
	if b.consecApplyErrs >= b.fs.EscalateErrors {
		b.escalate(now)
	}
}

// Txn is one decision transaction: the policy's window into the
// engine's state for the current round, and the only path through
// which it may actuate — every Apply funnels into the binding's shared
// error accounting, so no policy can forget to count a failure or to
// feed the fail-safe escalation.
type Txn struct {
	b      *Binding
	now    time.Duration
	sample float64
}

// Now returns the simulation time of the step being decided.
func (tx *Txn) Now() time.Duration { return tx.now }

// Sample returns the temperature sample that completed this round (NaN
// for bindings without a reader).
func (tx *Txn) Sample() float64 { return tx.sample }

// Window returns the binding's history window (nil for windowless
// bindings).
func (tx *Txn) Window() *window.Window { return tx.b.win }

// Apply commands the actuator at slot to physical mode m under the
// engine's shared error accounting: a failure counts toward the
// consecutive-actuation-error escalation, a success resets that run
// and records the move. Reports whether the actuation landed.
func (tx *Txn) Apply(slot, mode int) bool {
	s := tx.b.slots[slot]
	if err := s.act.Apply(mode); err != nil {
		tx.b.applyErr(tx.now)
		return false
	}
	tx.b.consecApplyErrs = 0
	s.moves++
	tx.b.mt.modeTransitions.Inc()
	return true
}

// ApplyDuty commands the actuator at slot with a continuous duty
// percentage through its DutyApplier interface, under the same error
// accounting as Apply. The actuator must implement DutyApplier; a
// binding wired otherwise is a programming error.
func (tx *Txn) ApplyDuty(slot int, pct float64) bool {
	s := tx.b.slots[slot]
	da, ok := s.act.(DutyApplier)
	if !ok {
		panic(fmt.Sprintf("core: actuator %s does not implement DutyApplier", s.act.Name()))
	}
	if err := da.ApplyDuty(pct); err != nil {
		tx.b.applyErr(tx.now)
		return false
	}
	tx.b.consecApplyErrs = 0
	s.moves++
	tx.b.mt.modeTransitions.Inc()
	return true
}

// CountError records a policy-internal failure (e.g. a utilization
// read) in the binding's shared error counter, without feeding the
// consecutive-error escalation.
func (tx *Txn) CountError() {
	tx.b.errs.Add(1)
	tx.b.mt.errors.Inc()
}

// lane is one binding inside an engine, with an optional coordination
// hook that runs just before each of the binding's rounds.
type lane struct {
	b   *Binding
	pre func(now time.Duration)
}

// Engine steps an ordered set of bindings as one control plane. The
// hybrid coordinator is an engine of two lanes — the threshold (tDVFS)
// binding first, then the ctlarray (fan) binding with a pre-round hook
// that holds the fan floor while the in-band knob is engaged. Any
// number of lanes compose the same way; ordering is attachment order.
type Engine struct {
	lanes []lane
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Attach appends a binding, with an optional pre-round coordination
// hook (nil for none). The hook runs only on steps where the binding
// is due (see Binding.NextDue), just before the binding's OnStep.
// Wiring time only.
func (e *Engine) Attach(b *Binding, pre func(now time.Duration)) {
	e.lanes = append(e.lanes, lane{b: b, pre: pre})
}

// NextDue is the earliest NextDue over the lanes; an empty engine is
// never due. Implements cluster.Scheduled.
func (e *Engine) NextDue() time.Duration {
	due := time.Duration(math.MaxInt64)
	for _, l := range e.lanes {
		due = min(due, l.b.NextDue())
	}
	return due
}

// OnStep steps every due lane in order, running its pre-round hook
// first. Implements the cluster Controller interface.
func (e *Engine) OnStep(now time.Duration) {
	for _, l := range e.lanes {
		if !l.b.due(now) {
			continue
		}
		if l.pre != nil {
			l.pre(now)
		}
		l.b.OnStep(now)
	}
}
