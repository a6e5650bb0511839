// Package core implements the paper's contribution: system-level,
// unified in-band and out-of-band dynamic thermal control.
//
// The pieces map onto the paper's §3 as follows:
//
//   - the two-level temperature history lives in core/window;
//   - the thermal control array and its Pp-driven fill in core/ctlarray;
//   - this package supplies the Actuator abstraction that unifies the
//     techniques (fan duty and DVFS, both over sysfs), the
//     Controller that drives any set of actuators from one temperature
//     stream and one policy parameter, and the TDVFS daemon
//     (threshold-gated frequency scaling, §4.3).
//
// Controllers touch the hardware only through small port interfaces
// (TempReader, FanPort, FreqPort) over the virtual sysfs tree. The fan
// port writes hwmon's pwm1, which the ADT7467 driver carries over i2c
// to the chip (the out-of-band knob); the frequency port writes cpufreq
// (the in-band one). One control law drives both — the unification the
// paper's title claims.
package core

import (
	"fmt"
	"math"

	"thermctl/internal/cpufreq"
	"thermctl/internal/hwmon"
)

// TempReader returns one temperature sample in °C. The tach watchdog
// reads fan speed in RPM through the same type.
type TempReader func() (float64, error)

// SysfsTemp reads an hwmon temp*_input attribute (millidegrees) —
// the in-band path, equivalent to lm-sensors. The attribute is opened
// once, here, and re-read through the handle on every sample.
func SysfsTemp(fs *hwmon.FS, path string) TempReader {
	attr := fs.Open(path)
	return func() (float64, error) {
		v, err := attr.ReadInt()
		if err != nil {
			return 0, err
		}
		return float64(v) / 1000, nil
	}
}

// FanPort commands a fan's PWM duty in percent.
type FanPort interface {
	SetDutyPercent(p float64) error
}

// SysfsFanPort drives pwm1 through the virtual sysfs; the ADT7467
// driver behind it writes the chip over i2c. It flips pwm1_enable to
// manual on first use.
type SysfsFanPort struct {
	pwm, enable *hwmon.Attr

	armed bool
}

// NewSysfsFanPort opens the chip's pwm1 and pwm1_enable attributes.
func NewSysfsFanPort(fs *hwmon.FS, chip hwmon.Chip) *SysfsFanPort {
	return &SysfsFanPort{pwm: fs.Open(chip.PWM), enable: fs.Open(chip.PWMEnable)}
}

// SetDutyPercent implements FanPort.
//
//thermlint:unit d=percent
func (p *SysfsFanPort) SetDutyPercent(d float64) error {
	if !p.armed {
		if err := p.enable.WriteInt(hwmon.PWMEnableManual); err != nil {
			return err
		}
		p.armed = true
	}
	return p.pwm.WriteInt(dutyToPWMReg(d))
}

// dutyToPWMReg converts a duty percentage to the hwmon pwm1 register
// count, clamped to the register's 0..255 range.
//
//thermlint:unit d=percent
//thermlint:unit duty8
func dutyToPWMReg(d float64) int64 {
	if d <= 0 {
		return 0
	}
	if d >= 100 {
		return 255
	}
	return int64(math.Round(d * 255 / 100))
}

// FreqPort commands a CPU frequency in kHz.
type FreqPort interface {
	AvailableKHz() ([]int64, error)
	SetKHz(f int64) error
}

// SysfsFreqPort drives cpufreq through the virtual sysfs.
type SysfsFreqPort struct {
	availAttr, setSpeed *hwmon.Attr

	// avail caches the parsed frequency table: the set of available
	// frequencies of a CPU is static, and policies may ask for it on
	// every decision.
	avail []int64
}

// NewSysfsFreqPort opens the policy's scaling_available_frequencies,
// and scaling_setspeed attributes.
func NewSysfsFreqPort(fs *hwmon.FS, paths cpufreq.Paths) *SysfsFreqPort {
	return &SysfsFreqPort{
		availAttr: fs.Open(paths.AvailableFreqs),
		setSpeed:  fs.Open(paths.SetSpeed),
	}
}

// AvailableKHz implements FreqPort. The table is read and parsed once,
// then served from the cache; the returned slice is shared and must be
// treated as read-only.
//
//thermlint:unit kHz
func (p *SysfsFreqPort) AvailableKHz() ([]int64, error) {
	if p.avail != nil {
		return p.avail, nil
	}
	body, err := p.availAttr.Read()
	if err != nil {
		return nil, err
	}
	freqs, err := cpufreq.ParseAvailable(body)
	if err != nil {
		return nil, err
	}
	p.avail = freqs
	return p.avail, nil
}

// SetKHz implements FreqPort.
//
//thermlint:unit f=kHz
func (p *SysfsFreqPort) SetKHz(f int64) error {
	return p.setSpeed.WriteInt(f)
}

// Actuator is one thermal control technique unified under the control
// array: physical modes 0..NumModes()-1 in ascending order of
// temperature-control effectiveness.
type Actuator interface {
	// Name identifies the technique in logs ("fan", "dvfs").
	Name() string
	// NumModes returns the count of physically available modes.
	NumModes() int
	// Apply actuates physical mode m (clamped by the caller).
	Apply(m int) error
}

// FanActuator discretizes a fan's continuous duty range into modes, as
// the paper's driver discretizes its fan into 100 distinct speeds. Mode
// 0 is MinDuty (least effective), mode NumModes-1 is MaxDuty.
type FanActuator struct {
	Port    FanPort
	Modes   int     // number of discrete speeds (paper: 100)
	MinDuty float64 // duty at mode 0, percent (paper: 1%)
	MaxDuty float64 // duty at the top mode — the experiment's max-PWM cap
}

// NewFanActuator returns a fan actuator with the paper's defaults:
// 100 modes from 1% up to maxDuty.
func NewFanActuator(port FanPort, maxDuty float64) *FanActuator {
	return &FanActuator{Port: port, Modes: 100, MinDuty: 1, MaxDuty: maxDuty}
}

// Name implements Actuator.
func (f *FanActuator) Name() string { return "fan" }

// NumModes implements Actuator.
func (f *FanActuator) NumModes() int { return f.Modes }

// DutyForMode returns the duty in percent commanded by mode m.
//
//thermlint:unit percent
func (f *FanActuator) DutyForMode(m int) float64 {
	if f.Modes <= 1 {
		return f.MaxDuty
	}
	if m < 0 {
		m = 0
	}
	if m >= f.Modes {
		m = f.Modes - 1
	}
	return f.MinDuty + float64(m)*(f.MaxDuty-f.MinDuty)/float64(f.Modes-1)
}

// Apply implements Actuator.
func (f *FanActuator) Apply(m int) error {
	return f.Port.SetDutyPercent(f.DutyForMode(m))
}

// DVFSActuator exposes the P-state table as modes: mode 0 is the
// highest frequency (least effective at cooling), the last mode the
// lowest frequency.
type DVFSActuator struct {
	Port FreqPort
	// freqs is the P-state table, descending.
	//thermlint:unit kHz
	freqs []int64
}

// NewDVFSActuator probes the port's frequency table.
func NewDVFSActuator(port FreqPort) (*DVFSActuator, error) {
	freqs, err := port.AvailableKHz()
	if err != nil {
		return nil, fmt.Errorf("core: dvfs actuator: %w", err)
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("core: dvfs actuator: empty frequency table")
	}
	return &DVFSActuator{Port: port, freqs: freqs}, nil
}

// Name implements Actuator.
func (d *DVFSActuator) Name() string { return "dvfs" }

// NumModes implements Actuator.
func (d *DVFSActuator) NumModes() int { return len(d.freqs) }

// FreqForMode returns the frequency (kHz) of mode m, clamped.
//
//thermlint:unit kHz
func (d *DVFSActuator) FreqForMode(m int) int64 {
	if m < 0 {
		m = 0
	}
	if m >= len(d.freqs) {
		m = len(d.freqs) - 1
	}
	return d.freqs[m]
}

// Apply implements Actuator.
func (d *DVFSActuator) Apply(m int) error {
	return d.Port.SetKHz(d.FreqForMode(m))
}
