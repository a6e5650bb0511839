package core

import (
	"time"

	"thermctl/internal/faults"
)

// The fail-safe degradation policy, shared by the unified controller
// and the tDVFS daemon: a controller that cannot see (failed reads) or
// cannot act (failed actuations) for FailSafeEscalateErrors consecutive
// samples escalates every actuator to its most effective mode — fan to
// maximum duty, DVFS to the frequency floor — because cooking the die
// silently is the one failure mode thermal control must never have.
// Control resumes after FailSafeRecoverSamples consecutive clean
// samples, mirroring the fan watchdog's stall/recover hysteresis.
// BindingConfig.NoFailSafe turns the policy off.
const (
	// FailSafeEscalateErrors is the consecutive-failure count that
	// triggers the escalation; at the 250 ms sample period it reacts
	// within 2 s.
	FailSafeEscalateErrors = 8
	// FailSafeRecoverSamples is the consecutive clean-sample count that
	// releases the escalation: 1 s of good data.
	FailSafeRecoverSamples = 4
)

// FailSafeEvent records one fail-safe edge, in the style of the fan
// watchdog's event log.
type FailSafeEvent struct {
	// At is the simulation time of the transition.
	At time.Duration
	// Engaged is true for an escalation, false for a recovery.
	Engaged bool
}

// RetryActuator wraps an Actuator so every Apply runs under a
// faults.Retrier: up to three immediate attempts absorb transient bus
// faults before the controller ever counts an error. The retrier never
// waits, so the control loop stays off the wall clock.
type RetryActuator struct {
	Inner Actuator
	R     *faults.Retrier
}

// Name implements Actuator.
func (ra *RetryActuator) Name() string { return ra.Inner.Name() }

// NumModes implements Actuator.
func (ra *RetryActuator) NumModes() int { return ra.Inner.NumModes() }

// Apply implements Actuator, retrying the inner Apply.
// It drives the retrier's closure-free Attempt loop: a Do closure would
// allocate on every actuation in Step-reachable code.
func (ra *RetryActuator) Apply(m int) error {
	var err error
	for a := ra.R.Begin(); a.Next(&err); {
		err = ra.Inner.Apply(m)
	}
	return err
}

// RetryFreqPort wraps a FreqPort so SetKHz runs under a faults.Retrier —
// the DVFS counterpart of RetryActuator, for wiring points that build a
// concrete DVFSActuator (NewTDVFS takes one, not the Actuator
// interface). Reads are passed through untouched: a failed read is a
// signal the controller's consecutive-error escalation must see.
type RetryFreqPort struct {
	Port FreqPort
	R    *faults.Retrier
}

// AvailableKHz implements FreqPort.
func (rp *RetryFreqPort) AvailableKHz() ([]int64, error) { return rp.Port.AvailableKHz() }

// SetKHz implements FreqPort, retrying the write with the closure-free
// Attempt loop (see RetryActuator.Apply).
func (rp *RetryFreqPort) SetKHz(f int64) error {
	var err error
	for a := rp.R.Begin(); a.Next(&err); {
		err = rp.Port.SetKHz(f)
	}
	return err
}
