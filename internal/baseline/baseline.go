// Package baseline implements the comparison controllers of the paper's
// evaluation:
//
//   - the static fan map: the traditional static fan control of
//     Figure 1 — PWM duty is a fixed linear map of the current
//     temperature (PWMmin below Tmin, rising to the maximum at Tmax),
//     with no history, no prediction and no policy parameter.
//   - the constant fan: a fixed duty cycle (the paper pins it at 75%),
//     the maximum-cooling / maximum-fan-power reference.
//   - CPUSPEED: the daemon of [33] — utilization-driven frequency
//     scaling with no temperature input, reading /proc/stat like the
//     real daemon. Its transition churn on phase-structured parallel
//     applications is the foil for tDVFS in Table 1.
//   - PID: a textbook temperature→duty loop, the "formal control"
//     alternative of the related work, for the ablation benches.
//
// Each baseline is a policy hosted on a core.Binding, and each
// constructor returns that binding: the engine owns sampling cadence
// and error accounting (the fail-safe escalation is disabled,
// preserving the baselines' historical count-and-skip behaviour), and
// the policy is only the decision law the paper compares against.
package baseline

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"thermctl/internal/adt7467"
	"thermctl/internal/core"
	"thermctl/internal/hwmon"
)

// StaticFanConfig parameterizes the traditional controller.
type StaticFanConfig struct {
	// TminC, TmaxC, MinDuty define the Figure 1 line: MinDuty at TminC,
	// rising linearly to MaxDuty at TmaxC. Paper platform: 38 °C, 82 °C,
	// 10%.
	TminC, TmaxC float64
	MinDuty      float64
	// MaxDuty caps the speed ("the maximum allowed fan speed ... is
	// set to 75%" in the paper's Figure 6 comparison).
	MaxDuty float64
	// SamplePeriod is how often the map is re-evaluated (250 ms).
	SamplePeriod time.Duration
}

// DefaultStaticFanConfig returns the paper's traditional fan curve with
// the given duty cap.
func DefaultStaticFanConfig(maxDuty float64) StaticFanConfig {
	return StaticFanConfig{
		TminC: 38, TmaxC: 82,
		MinDuty: 10, MaxDuty: maxDuty,
		SamplePeriod: 250 * time.Millisecond,
	}
}

// Duty returns the static map's duty for temperature t — the Figure 1
// line capped at MaxDuty.
func (c StaticFanConfig) Duty(t float64) float64 {
	d := adt7467.StaticCurve(t, c.TminC, c.TmaxC-c.TminC, c.MinDuty)
	if d > c.MaxDuty {
		d = c.MaxDuty
	}
	return d
}

// staticFanPolicy maps each sample through the Figure 1 line. The
// static map is memoryless, so the policy is one expression.
type staticFanPolicy struct{ cfg StaticFanConfig }

// Decide implements core.Policy.
func (p staticFanPolicy) Decide(tx *core.Txn) {
	tx.ApplyDuty(0, p.cfg.Duty(tx.Sample()))
}

// NewStaticFan builds the traditional static fan controller: a binding
// that re-evaluates the map every SamplePeriod.
func NewStaticFan(cfg StaticFanConfig, read core.TempReader, port core.FanPort) (*core.Binding, error) {
	if read == nil || port == nil {
		return nil, fmt.Errorf("baseline: static fan needs a reader and a port")
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("baseline: non-positive sample period")
	}
	if cfg.TmaxC <= cfg.TminC {
		return nil, fmt.Errorf("baseline: Tmax must exceed Tmin")
	}
	return core.NewBinding(core.BindingConfig{
		Policy:       staticFanPolicy{cfg: cfg},
		Read:         read,
		SamplePeriod: cfg.SamplePeriod,
		FailSafe:     core.FailSafeConfig{Disable: true},
		Actuators:    []core.Actuator{&core.FanDutyActuator{Port: port}},
	})
}

// constantFanPolicy pins the duty once, retrying the write on every
// step until it lands.
type constantFanPolicy struct {
	duty float64
	done bool
}

// Decide implements core.Policy.
func (p *constantFanPolicy) Decide(tx *core.Txn) {
	if p.done {
		return
	}
	if tx.ApplyDuty(0, p.duty) {
		p.done = true
	}
}

// NewConstantFan builds the controller that pins the fan at a fixed
// duty once and keeps it there. The binding is windowless, readerless
// and ungated: the policy fires on every step until the pin lands.
func NewConstantFan(duty float64, port core.FanPort) *core.Binding {
	// Construction cannot fail with a non-nil policy.
	b, err := core.NewBinding(core.BindingConfig{
		Policy:    &constantFanPolicy{duty: duty},
		FailSafe:  core.FailSafeConfig{Disable: true},
		Actuators: []core.Actuator{&core.FanDutyActuator{Port: port}},
	})
	if err != nil {
		panic(err)
	}
	return b
}

// CPUSpeedConfig parameterizes the CPUSPEED daemon model.
type CPUSpeedConfig struct {
	// Interval is the utilization evaluation period. The real daemon
	// defaults to checking a few times per second; 500 ms here.
	Interval time.Duration
	// UpThreshold jumps straight to the maximum frequency when the
	// interval utilization meets it (the daemon's responsiveness rule).
	UpThreshold float64
	// DownThreshold steps one frequency lower when the interval
	// utilization falls below it.
	DownThreshold float64
}

// DefaultCPUSpeedConfig returns thresholds representative of the
// distributed daemon's defaults. With a 500 ms interval against BT's
// ≈1.1 s iterations, only the longer communication exchanges pull an
// evaluation window under the down-threshold, so the daemon churns
// intermittently — roughly one change every couple of seconds, the
// 101-139 changes per BT run the paper's Table 1 measures — and each
// excursion is recovered within an interval or two.
func DefaultCPUSpeedConfig() CPUSpeedConfig {
	return CPUSpeedConfig{
		Interval:      500 * time.Millisecond,
		UpThreshold:   0.88,
		DownThreshold: 0.66,
	}
}

// cpuSpeedPolicy holds the daemon's decision state. The binding has no
// temperature reader — utilization is the only input — so the policy
// gathers its own sample inside Decide and reports failures through
// the transaction's error counter.
type cpuSpeedPolicy struct {
	cfg  CPUSpeedConfig
	stat *hwmon.Attr // /proc/stat, opened when the daemon is built
	freq core.FreqPort

	lastBusy, lastTotal float64
	primed              bool
	mode                int
	nmodes              int
}

// NewCPUSpeed builds the utilization-driven DVFS daemon over a node's
// file tree and frequency port. It reads /proc/stat through the
// virtual sysfs and drives cpufreq, exactly as the real daemon does —
// no temperature input at all.
func NewCPUSpeed(cfg CPUSpeedConfig, fs *hwmon.FS, freq core.FreqPort) (*core.Binding, error) {
	if fs == nil || freq == nil {
		return nil, fmt.Errorf("baseline: cpuspeed needs a filesystem and a freq port")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("baseline: non-positive interval")
	}
	freqs, err := freq.AvailableKHz()
	if err != nil {
		return nil, fmt.Errorf("baseline: cpuspeed: %w", err)
	}
	return core.NewBinding(core.BindingConfig{
		Policy:       &cpuSpeedPolicy{cfg: cfg, stat: fs.Open("/proc/stat"), freq: freq, nmodes: len(freqs)},
		SamplePeriod: cfg.Interval,
		FailSafe:     core.FailSafeConfig{Disable: true},
	})
}

// readProcStat parses the aggregate cpu line of /proc/stat into busy and
// total jiffies.
func (p *cpuSpeedPolicy) readProcStat() (busy, total float64, err error) {
	body, err := p.stat.Read()
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(body, "\n")
	return parseProcStat(line)
}

// parseProcStat sums the jiffy counts of an aggregate "cpu" line in one
// scan, without splitting it: each count is added as it is parsed, in
// line order, so the sums are bit-identical to summing a parsed slice.
// Fields split on white space as strings.Fields does. The line needs
// the "cpu" label and at least four counts (user nice system idle ...);
// idle, the fourth, is not busy. A short or mislabeled line is
// malformed even when one of its counts is also unparsable.
func parseProcStat(line string) (busy, total float64, err error) {
	n := 0
	label, bad := "", ""
	for rest := line; ; n++ {
		rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
		if rest == "" {
			break
		}
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		f := rest[:end]
		rest = rest[end:]
		if n == 0 {
			label = f
			continue
		}
		v, perr := strconv.ParseFloat(f, 64)
		if perr != nil {
			if bad == "" {
				bad = f
			}
			continue
		}
		total += v
		// user nice system idle iowait irq softirq: idle is count 4.
		if n != 4 {
			busy += v
		}
	}
	if n < 5 || label != "cpu" {
		return 0, 0, fmt.Errorf("baseline: malformed /proc/stat %q", line)
	}
	if bad != "" {
		return 0, 0, fmt.Errorf("baseline: bad jiffy count %q", bad)
	}
	return busy, total, nil
}

// Decide implements core.Policy: one utilization evaluation.
func (p *cpuSpeedPolicy) Decide(tx *core.Txn) {
	busy, total, err := p.readProcStat()
	if err != nil {
		tx.CountError()
		return
	}
	if !p.primed {
		p.primed = true
		p.lastBusy, p.lastTotal = busy, total
		return
	}
	db, dt := busy-p.lastBusy, total-p.lastTotal
	p.lastBusy, p.lastTotal = busy, total
	if dt <= 0 {
		return
	}
	util := db / dt

	switch {
	case util >= p.cfg.UpThreshold && p.mode != 0:
		// Jump straight to the fastest frequency, as the daemon does.
		p.mode = 0
		p.apply(tx)
	case util <= p.cfg.DownThreshold && p.mode < p.nmodes-1:
		p.mode++
		p.apply(tx)
	}
}

func (p *cpuSpeedPolicy) apply(tx *core.Txn) {
	freqs, err := p.freq.AvailableKHz()
	if err != nil {
		tx.CountError()
		return
	}
	if err := p.freq.SetKHz(freqs[p.mode]); err != nil {
		tx.CountError()
	}
}
