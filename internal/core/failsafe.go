package core

import (
	"time"

	"thermctl/internal/faults"
)

// FailSafeConfig parameterizes the degradation policy shared by the
// unified controller and the tDVFS daemon: a controller that cannot see
// (failed reads) or cannot act (failed actuations) for EscalateErrors
// consecutive samples escalates every actuator to its most effective
// mode — fan to maximum duty, DVFS to the frequency floor — because
// cooking the die silently is the one failure mode thermal control must
// never have. Control resumes after RecoverSamples consecutive clean
// samples, mirroring the fan watchdog's stall/recover hysteresis.
type FailSafeConfig struct {
	// EscalateErrors is the consecutive-failure count that triggers the
	// escalation. At the 250 ms sample period the default 8 reacts
	// within 2 s. Zero selects the default.
	EscalateErrors int
	// RecoverSamples is the consecutive clean-sample count that releases
	// the escalation (default 4, i.e. 1 s of good data). Zero selects
	// the default.
	RecoverSamples int
	// Disable turns the policy off, restoring the historical
	// count-and-skip behaviour. For experiments only.
	Disable bool
}

// DefaultFailSafeConfig returns the default escalation thresholds.
func DefaultFailSafeConfig() FailSafeConfig {
	return FailSafeConfig{EscalateErrors: 8, RecoverSamples: 4}
}

// withDefaults fills zero fields.
func (f FailSafeConfig) withDefaults() FailSafeConfig {
	if f.EscalateErrors == 0 {
		f.EscalateErrors = 8
	}
	if f.RecoverSamples == 0 {
		f.RecoverSamples = 4
	}
	return f
}

// FailSafeEvent records one fail-safe edge, in the style of the fan
// watchdog's event log.
type FailSafeEvent struct {
	// At is the simulation time of the transition.
	At time.Duration
	// Engaged is true for an escalation, false for a recovery.
	Engaged bool
}

// RetryActuator wraps an Actuator so every Apply runs under a
// faults.Retrier: bounded attempts with jittered backoff absorb
// transient bus faults before the controller ever counts an error.
// Build the Retrier with a nil sleep function when the actuator is
// driven from OnStep-reachable code (the control loop must not wait on
// the wall clock).
type RetryActuator struct {
	Inner Actuator
	R     *faults.Retrier
}

// Name implements Actuator.
func (ra *RetryActuator) Name() string { return ra.Inner.Name() }

// NumModes implements Actuator.
func (ra *RetryActuator) NumModes() int { return ra.Inner.NumModes() }

// Apply implements Actuator, retrying the inner Apply under the policy.
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

// SetKHz implements FreqPort, retrying the write under the policy with
// the closure-free Attempt loop (see RetryActuator.Apply).
func (rp *RetryFreqPort) SetKHz(f int64) error {
	var err error
	for a := rp.R.Begin(); a.Next(&err); {
		err = rp.Port.SetKHz(f)
	}
	return err
}
