package baseline

import (
	"fmt"
	"time"

	"thermctl/internal/core"
)

// The PID loop's tuning, competent for this plant: setpoint 50 °C,
// gains picked for modest overshoot on a cpu-burn load step.
const (
	// pidSetpointC is the temperature the loop regulates to.
	pidSetpointC = 50
	// pidKp, pidKi and pidKd are the classic gains, in duty-percent per
	// °C, per °C·s, and per °C/s respectively.
	pidKp = 8
	pidKi = 0.35
	pidKd = 12
	// pidDerivTau low-pass filters the measurement before the
	// derivative term, as any practical PID must with a noisy sensor.
	pidDerivTau = 2 * time.Second
	// pidMinDuty and pidMaxDuty clamp the output (and bound the
	// integral term, preventing windup).
	pidMinDuty = 1
	pidMaxDuty = 100
	// pidPeriod is the loop rate.
	pidPeriod = 250 * time.Millisecond
)

// pidPolicy is a textbook PID temperature→duty loop: the "formal
// control" alternative the paper's related work surveys (Lefurgy et
// al., Wang et al.). It regulates to a fixed setpoint — there is no
// policy parameter, no history window, and no notion of behaviour
// types. The ablation benches compare it against the paper's
// controller on settling, steady temperature and actuator churn.
type pidPolicy struct {
	integ    float64
	filtered float64
	prevF    float64
	primed   bool
}

// NewPIDFan builds the loop: a binding that samples every 250 ms and
// writes one duty per sample. Its Errors count failed reads and
// writes; Moves(0) counts the duty commands issued — the actuator
// churn metric.
//
//thermlint:allow deadcode -- the PID baseline: BenchmarkAblateVsPID and the pid.tct golden pin it
func NewPIDFan(read core.TempReader, port core.FanPort) (*core.Binding, error) {
	if read == nil || port == nil {
		return nil, fmt.Errorf("baseline: pid needs a reader and a port")
	}
	return core.NewBinding(core.BindingConfig{
		Policy:       &pidPolicy{},
		Read:         read,
		SamplePeriod: pidPeriod,
		NoFailSafe:   true,
		Actuators:    []core.Actuator{&core.FanDutyActuator{Port: port}},
	})
}

// Decide implements core.Policy: one PID update on the round's sample.
func (p *pidPolicy) Decide(tx *core.Txn) {
	t := tx.Sample()
	dt := pidPeriod.Seconds()

	// Low-pass the measurement for the derivative path.
	alpha := dt / (pidDerivTau.Seconds() + dt)
	if !p.primed {
		p.filtered = t
		p.prevF = t
		p.primed = true
	}
	p.filtered += alpha * (t - p.filtered)

	e := t - pidSetpointC
	p.integ += e * dt
	deriv := (p.filtered - p.prevF) / dt
	p.prevF = p.filtered

	out := pidKp*e + pidKi*p.integ + pidKd*deriv

	// Clamp with integral anti-windup: when saturated, freeze the
	// integral at the value that keeps the output on the rail.
	if out > pidMaxDuty {
		p.integ -= (out - pidMaxDuty) / pidKi
		out = pidMaxDuty
	}
	if out < pidMinDuty {
		p.integ += (pidMinDuty - out) / pidKi
		out = pidMinDuty
	}
	tx.ApplyDuty(0, out)
}
