package baseline

import (
	"fmt"
	"time"

	"thermctl/internal/core"
)

// PIDFanConfig parameterizes the PID comparison controller.
type PIDFanConfig struct {
	// SetpointC is the temperature the loop regulates to.
	SetpointC float64
	// Kp, Ki, Kd are the classic gains, in duty-percent per °C,
	// per °C·s, and per °C/s respectively.
	Kp, Ki, Kd float64
	// DerivFilterTau low-pass filters the measurement before the
	// derivative term, as any practical PID must with a noisy sensor.
	DerivFilterTau time.Duration
	// MinDuty and MaxDuty clamp the output (and bound the integral
	// term, preventing windup).
	MinDuty, MaxDuty float64
	// SamplePeriod is the loop rate.
	SamplePeriod time.Duration
}

// DefaultPIDFanConfig returns a competently tuned loop for this
// plant: setpoint 50 °C, gains picked for modest overshoot on a
// cpu-burn load step.
func DefaultPIDFanConfig() PIDFanConfig {
	return PIDFanConfig{
		SetpointC:      50,
		Kp:             8,
		Ki:             0.35,
		Kd:             12,
		DerivFilterTau: 2 * time.Second,
		MinDuty:        1,
		MaxDuty:        100,
		SamplePeriod:   250 * time.Millisecond,
	}
}

// pidPolicy is a textbook PID temperature→duty loop: the "formal
// control" alternative the paper's related work surveys (Lefurgy et
// al., Wang et al.). It regulates to a fixed setpoint — there is no
// policy parameter, no history window, and no notion of behaviour
// types. The ablation benches compare it against the paper's
// controller on settling, steady temperature and actuator churn.
type pidPolicy struct {
	cfg PIDFanConfig

	integ    float64
	filtered float64
	prevF    float64
	primed   bool
}

// NewPIDFan builds the loop: a binding that samples every SamplePeriod
// and writes one duty per sample. Its Errors count failed reads and
// writes; Moves(0) counts the duty commands issued — the actuator
// churn metric.
func NewPIDFan(cfg PIDFanConfig, read core.TempReader, port core.FanPort) (*core.Binding, error) {
	if read == nil || port == nil {
		return nil, fmt.Errorf("baseline: pid needs a reader and a port")
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("baseline: pid: non-positive sample period")
	}
	if cfg.MaxDuty <= cfg.MinDuty {
		return nil, fmt.Errorf("baseline: pid: empty duty range")
	}
	return core.NewBinding(core.BindingConfig{
		Policy:       &pidPolicy{cfg: cfg},
		Read:         read,
		SamplePeriod: cfg.SamplePeriod,
		FailSafe:     core.FailSafeConfig{Disable: true},
		Actuators:    []core.Actuator{&core.FanDutyActuator{Port: port}},
	})
}

// Name implements core.Policy.
func (p *pidPolicy) Name() string { return "pid" }

// Decide implements core.Policy: one PID update on the round's sample.
func (p *pidPolicy) Decide(tx *core.Txn) {
	t := tx.Sample()
	dt := p.cfg.SamplePeriod.Seconds()

	// Low-pass the measurement for the derivative path.
	alpha := 1.0
	if tau := p.cfg.DerivFilterTau.Seconds(); tau > 0 {
		alpha = dt / (tau + dt)
	}
	if !p.primed {
		p.filtered = t
		p.prevF = t
		p.primed = true
	}
	p.filtered += alpha * (t - p.filtered)

	e := t - p.cfg.SetpointC
	p.integ += e * dt
	deriv := (p.filtered - p.prevF) / dt
	p.prevF = p.filtered

	out := p.cfg.Kp*e + p.cfg.Ki*p.integ + p.cfg.Kd*deriv

	// Clamp with integral anti-windup: when saturated, freeze the
	// integral at the value that keeps the output on the rail.
	if out > p.cfg.MaxDuty {
		if p.cfg.Ki > 0 {
			p.integ -= (out - p.cfg.MaxDuty) / p.cfg.Ki
		}
		out = p.cfg.MaxDuty
	}
	if out < p.cfg.MinDuty {
		if p.cfg.Ki > 0 {
			p.integ += (p.cfg.MinDuty - out) / p.cfg.Ki
		}
		out = p.cfg.MinDuty
	}
	tx.ApplyDuty(0, out)
}
