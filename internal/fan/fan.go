// Package fan models a PWM-controlled CPU cooling fan.
//
// The model follows the standard fan affinity laws: rotational speed is an
// affine function of PWM duty cycle above the spin-up floor, volumetric
// airflow is proportional to speed, and electrical power grows with the
// cube of speed. Speed changes are first-order lagged (a real rotor has
// inertia), which matters for the controller: a duty-cycle write does not
// cool the die on the same sample.
//
// The paper's platform is a 4300 RPM fan whose continuous speed range is
// discretized into 100 duty steps (1%..100%); Default returns that fan.
package fan

import (
	"fmt"
	"math"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/metrics"
)

// Config describes the static characteristics of a fan.
type Config struct {
	// MaxRPM is the rotational speed at 100% duty. The paper's fan tops
	// out at 4300 RPM.
	MaxRPM float64
	// FloorFrac is the fraction of MaxRPM delivered at the lowest
	// non-zero duty; real fans cannot rotate arbitrarily slowly.
	FloorFrac float64
	// MaxPower is the electrical power drawn at full speed, in watts.
	MaxPower float64
	// TimeConst is the first-order lag time constant of the rotor.
	TimeConst time.Duration
	// TachResolution is the RPM quantization of the tachometer readback.
	TachResolution float64
}

// Default returns the configuration used throughout the reproduction,
// matching the paper's 4300 RPM fan.
func Default() Config {
	return Config{
		MaxRPM:         4300,
		FloorFrac:      0.08,
		MaxPower:       4.5,
		TimeConst:      800 * time.Millisecond,
		TachResolution: 30,
	}
}

// Fan is a PWM-controlled fan instance. It is owned by the stepping
// goroutine; not safe for concurrent use. The in-band path (hwmon
// files), the ADT7467 chip and the BMC all reach it from that goroutine
// (an IPMI server takes the owner's lock around each request).
type Fan struct {
	cfg    Config
	duty   float64 // commanded duty, percent [0,100]
	rpm    float64 // current (lagged) speed
	failed bool

	// tau is cfg.TimeConst in seconds, converted once in New.
	tau float64

	// lagDt and lag memoize the rotor's lag factor 1-exp(-dt/TimeConst)
	// for the cluster's step, and oddDt and oddLag (below, off the fast
	// path) for the last other dt. A cluster steps at one fixed dt, but
	// its SPMD executor splits a step at each program phase boundary
	// into slices of other lengths. A miss replaces only the odd entry,
	// and a hit on it swaps the two, so the entry kept is the last dt
	// used twice: the cluster's step survives any run of slices. The
	// zero values are consistent (dt 0 lags by exactly 0).
	lagDt time.Duration
	lag   float64

	// inj, when attached, drives bearing-degradation and hard-stall
	// fault episodes on top of the explicit SetFailed knob.
	inj *faults.Injector

	// dutyTransitions is the optional nil-safe metric counting commanded
	// duty changes (see InstrumentMetrics).
	dutyTransitions *metrics.Counter

	oddDt  time.Duration
	oddLag float64
}

// New returns a fan with the given configuration, initially commanded to
// dutyPercent and already spun up to the corresponding steady speed. A
// NaN duty leaves the fan stopped at duty 0.
func New(cfg Config, dutyPercent float64) *Fan {
	f := &Fan{cfg: cfg, tau: cfg.TimeConst.Seconds()}
	f.SetDuty(dutyPercent)
	f.rpm = f.targetRPM()
	return f
}

// SetDuty commands a new PWM duty cycle in percent. Values are clamped
// to [0, 100]. A NaN command is no command: the fan holds its last
// duty, as the ADT7467 holds its cycle on a failed conversion, rather
// than letting NaN into the rotor state for good.
func (f *Fan) SetDuty(dutyPercent float64) {
	if math.IsNaN(dutyPercent) {
		return
	}
	clamped := dutyPercent
	if clamped <= 0 {
		clamped = 0 // also turns -0 into 0
	}
	if clamped > 100 {
		clamped = 100
	}
	if clamped != f.duty {
		f.dutyTransitions.Inc()
	}
	f.duty = clamped
}

// InstrumentMetrics registers a duty-transition counter on reg with
// the given constant labels and attaches it: every SetDuty that
// changes the commanded duty increments it. Wiring-time only —
// registration must not happen in Step-reachable code.
func (f *Fan) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	f.dutyTransitions = reg.NewCounter("thermctl_fan_duty_transitions_total",
		"commanded PWM duty changes", labels...)
}

// Duty returns the commanded duty cycle in percent.
func (f *Fan) Duty() float64 {
	return f.duty
}

// SetFailed marks the fan as mechanically failed (seized rotor): it
// spins down regardless of the commanded duty, and the tachometer will
// report the stall. Fan failure is a standard thermal-management test
// case (the paper's related work reacts to it with DVFS).
func (f *Fan) SetFailed(failed bool) {
	f.failed = failed
}

// AttachInjector subscribes the fan to a fault plane: a FanStalled state
// seizes the rotor like SetFailed, and FanDegrade caps the reached speed
// at that fraction of the commanded target (worn bearings). Wiring time
// only.
func (f *Fan) AttachInjector(inj *faults.Injector) {
	f.inj = inj
}

// targetRPM is the steady-state speed for the commanded duty.
func (f *Fan) targetRPM() float64 {
	st := f.inj.State()
	if f.failed || st.FanStalled || f.duty <= 0 {
		return 0
	}
	frac := f.cfg.FloorFrac + (1-f.cfg.FloorFrac)*f.duty/100
	rpm := f.cfg.MaxRPM * frac
	if st.FanDegrade > 0 {
		rpm *= st.FanDegrade
	}
	return rpm
}

// Step advances the rotor dynamics by dt.
func (f *Fan) Step(dt time.Duration) {
	target := f.targetRPM()
	if f.tau <= 0 {
		f.rpm = target
		return
	}
	lag := f.lag
	if dt != f.lagDt {
		lag = f.lagFor(dt)
	}
	f.rpm += lag * (target - f.rpm)
}

// lagFor returns the lag factor for a dt other than the kept step's:
// the odd entry's, swapped in as the kept one, or on a miss a fresh
// value stored in the odd entry only.
func (f *Fan) lagFor(dt time.Duration) float64 {
	if dt != f.oddDt {
		f.oddDt, f.oddLag = dt, 1-math.Exp(-dt.Seconds()/f.tau)
		return f.oddLag
	}
	f.lagDt, f.lag, f.oddDt, f.oddLag = f.oddDt, f.oddLag, f.lagDt, f.lag
	return f.lag
}

// RPM returns the true current rotational speed.
//
//thermlint:allow deadcode -- oracle: the auto-cluster golden and the fan tests record rotor speed
func (f *Fan) RPM() float64 {
	return f.rpm
}

// TachRPM returns the speed as reported by the tachometer, quantized to
// the tach resolution.
func (f *Fan) TachRPM() float64 {
	if f.cfg.TachResolution <= 0 {
		return f.rpm
	}
	return math.Round(f.rpm/f.cfg.TachResolution) * f.cfg.TachResolution
}

// Airflow returns the normalized volumetric airflow in [0, 1], which by
// the fan laws is proportional to rotational speed.
func (f *Fan) Airflow() float64 {
	if f.cfg.MaxRPM <= 0 {
		return 0
	}
	return f.rpm / f.cfg.MaxRPM
}

// Power returns the electrical power drawn by the fan in watts. Fan
// power scales with the cube of speed, which is why aggressive cooling
// policies carry a measurable power cost.
func (f *Fan) Power() float64 {
	x := f.Airflow()
	return f.cfg.MaxPower * x * x * x
}

// String summarizes the fan state for logs.
func (f *Fan) String() string {
	return fmt.Sprintf("fan{duty=%.0f%% rpm=%.0f}", f.duty, f.rpm)
}
