// Package adt7467 models the Analog Devices ADT7467 dBCOOL remote
// thermal monitor and fan controller — the chip the paper attached to
// each node over i2c — together with a host-side driver.
//
// Two behaviours of the real part matter for the reproduction:
//
//   - Automatic fan speed control: the chip itself maps measured
//     temperature to PWM duty through the static Tmin/Trange curve of the
//     datasheet (the paper's Figure 1). This is the "traditional fan
//     control" baseline: duty = PWMmin below Tmin, rising linearly to
//     100% at Tmin+Trange.
//   - Manual mode: the host (or BMC) writes the PWM current-duty register
//     directly. The paper's dynamic fan controller runs the chip in this
//     mode.
//
// Register addresses follow the ADT7467 datasheet for the subset we
// model: remote-1 temperature (0x25), PWM1 current duty (0x30), TACH1
// (0x28/0x29), PWM1 configuration (0x5C), Tmin (0x67), Trange (0x5F),
// PWM1 minimum duty (0x64), device/company ID (0x3D/0x3E).
package adt7467

import (
	"fmt"
	"math"
	"time"

	"thermctl/internal/fan"
	"thermctl/internal/i2c"
	"thermctl/internal/metrics"
	"thermctl/internal/sensor"
)

// Register addresses (datasheet names in comments).
const (
	RegRemote1Temp = 0x25 // remote 1 temperature reading
	RegTach1Low    = 0x28 // TACH1 low byte
	RegTach1High   = 0x29 // TACH1 high byte
	RegPWM1Duty    = 0x30 // PWM1 current duty cycle (0x00..0xFF)
	RegIntStatus1  = 0x41 // interrupt status 1 (bit 4: remote 1 out of limits)
	RegR1LowLimit  = 0x4E // remote 1 low temperature limit
	RegR1HighLimit = 0x4F // remote 1 high temperature limit
	RegDeviceID    = 0x3D // device ID, 0x68
	RegCompanyID   = 0x3E // company ID, 0x41 (Analog Devices)
	RegPWM1Config  = 0x5C // PWM1 configuration (behaviour bits 7:5)
	RegPWM1Trange  = 0x5F // PWM1 Trange / frequency
	RegPWM1MinDuty = 0x64 // PWM1 minimum duty cycle
	RegTmin1       = 0x67 // remote 1 Tmin
)

// IntR1T is the RegIntStatus1 bit flagging a remote-1 temperature
// limit violation.
const IntR1T = 0x10

// PWM1Config behaviour values (bits 7:5 of RegPWM1Config).
const (
	BehaviourRemote1 = 0x00 // automatic, controlled by remote 1 channel
	BehaviourManual  = 0xE0 // manual mode
)

// DeviceID and CompanyID are the identification values of the real part.
const (
	DeviceID  = 0x68
	CompanyID = 0x41
)

// DefaultAddr is the chip's usual 7-bit i2c address.
const DefaultAddr = 0x2E

// TachConstant converts between RPM and TACH counts:
// counts = TachConstant / RPM (datasheet: 90 kHz clock × 60 s).
const TachConstant = 5400000

// Chip is the device model. It reads die temperature through a sensor,
// drives a fan, and exposes the datasheet register map on the i2c bus.
// As on the real part, RegPWM1Duty reads back the duty being driven at
// the moment of the read, in either mode. A write to it moves the fan
// at once in manual mode and has no effect in automatic mode, where the
// next read returns the curve's duty again.
// It is owned by the stepping goroutine; not safe for concurrent use:
// the monitoring cycle (Step) and the bus transactions (ReadReg and
// WriteReg, reached through the host's and the BMC's driver handles on
// the shared i2c bus) all run on that goroutine.
type Chip struct {
	rf   *i2c.RegisterFile
	temp *sensor.Sensor
	fan  *fan.Fan

	// alarm latching state: cond is the live limit violation, latched
	// holds until read (datasheet: status bits clear on read once the
	// condition has gone).
	alarmCond    bool
	alarmLatched bool

	// regWrites is the optional nil-safe metric counting register write
	// transactions on the bus (see InstrumentMetrics).
	regWrites *metrics.Counter
}

// NewChip wires a chip to its temperature sensor and fan, initialized to
// the paper's platform defaults: automatic mode with Tmin=38 °C,
// Trange≈44 °C (Tmax 82 °C) and 10% minimum duty.
func NewChip(temp *sensor.Sensor, f *fan.Fan) *Chip {
	c := new(Chip)
	NewChipAt(c, new(i2c.RegisterFile), temp, f)
	return c
}

// NewChipAt is NewChip building the chip in place at c, with its
// register map at rf; both are overwritten. The register hooks close
// over c, so a chip must not be copied after it is built: a caller
// laying chips out in its own storage (node.Block) builds them there.
func NewChipAt(c *Chip, rf *i2c.RegisterFile, temp *sensor.Sensor, f *fan.Fan) {
	*rf = *i2c.NewRegisterFile()
	*c = Chip{rf: rf, temp: temp, fan: f}
	c.rf.Set(RegDeviceID, DeviceID)
	c.rf.Set(RegCompanyID, CompanyID)
	c.rf.MarkReadOnly(RegDeviceID)
	c.rf.MarkReadOnly(RegCompanyID)
	c.rf.MarkReadOnly(RegRemote1Temp)
	c.rf.MarkReadOnly(RegTach1Low)
	c.rf.MarkReadOnly(RegTach1High)

	c.rf.Set(RegPWM1Config, BehaviourRemote1)
	c.rf.Set(RegTmin1, 38)
	c.rf.Set(RegPWM1Trange, 44)
	c.rf.Set(RegPWM1MinDuty, dutyToReg(10))
	c.rf.Set(RegR1LowLimit, 0)                // 0 °C
	c.rf.Set(RegR1HighLimit, uint8(int8(81))) // default high limit
	c.rf.MarkReadOnly(RegIntStatus1)
	// Reading the status register returns the latched bits, then
	// re-arms the latch from the live condition.
	c.rf.OnRead(RegIntStatus1, func() uint8 {
		var v uint8
		if c.alarmLatched {
			v = IntR1T
		}
		c.alarmLatched = c.alarmCond
		return v
	})

	// Measurement registers refresh on read, like the real part's
	// round-robin monitoring loop. A failed conversion (sensor dropout
	// fault) leaves the register holding its last value, as real
	// silicon's measurement latch does.
	c.rf.OnRead(RegRemote1Temp, func() uint8 {
		t, err := c.temp.ReadChecked()
		if err != nil {
			return c.rf.Get(RegRemote1Temp)
		}
		if t < -128 {
			t = -128
		}
		if t > 127 {
			t = 127
		}
		return uint8(int8(math.Round(t)))
	})
	c.rf.OnRead(RegTach1Low, func() uint8 { return uint8(c.tachCounts()) })
	c.rf.OnRead(RegTach1High, func() uint8 { return uint8(c.tachCounts() >> 8) })

	// The duty register reads back the duty being driven, encoded
	// when read: a manual write has already moved the fan, and
	// dutyToReg(regToDuty(v)) == v, so it reads back exactly.
	c.rf.OnRead(RegPWM1Duty, func() uint8 { return dutyToReg(c.fan.Duty()) })
	// Manual duty writes take effect immediately.
	c.rf.OnWrite(RegPWM1Duty, func(v uint8) {
		if c.manual() {
			c.fan.SetDuty(regToDuty(v))
		}
	})
}

func (c *Chip) manual() bool {
	return c.rf.Get(RegPWM1Config)&0xE0 == BehaviourManual
}

func (c *Chip) tachCounts() uint16 {
	rpm := c.fan.TachRPM()
	if rpm <= 0 {
		return 0xFFFF // stalled fan reads all-ones
	}
	counts := TachConstant / rpm
	if counts > 0xFFFE {
		return 0xFFFF
	}
	return uint16(counts)
}

// ReadReg implements i2c.Device.
func (c *Chip) ReadReg(reg uint8) (uint8, error) {
	return c.rf.ReadReg(reg)
}

// WriteReg implements i2c.Device.
func (c *Chip) WriteReg(reg, val uint8) error {
	c.regWrites.Inc()
	return c.rf.WriteReg(reg, val)
}

// InstrumentMetrics registers a register-write counter on reg with the
// given constant labels and attaches it: every bus write transaction
// reaching the chip increments it, whatever the register. Wiring-time
// only — registration must not happen in Step-reachable code.
func (c *Chip) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	c.regWrites = reg.NewCounter("thermctl_adt7467_register_writes_total",
		"i2c register write transactions handled by the chip", labels...)
}

// Step runs one monitoring cycle. In automatic mode the chip re-evaluates
// the static temperature→duty map and drives the fan; in manual mode the
// fan keeps the host-commanded duty.
//
// A cycle converts the sensor once. In automatic mode the auto curve
// and the limit comparator both act on that one reading. In manual
// mode only the comparator uses it, so the cycle asks the sensor
// whether the reading is outside the limits (sensor.Outside), which
// skips drawing the noise whenever the noise cannot change the answer.
// A sensor without a tick source draws one noise value per cycle.
func (c *Chip) Step(time.Duration) {
	lo := float64(int8(c.rf.Get(RegR1LowLimit)))
	hi := float64(int8(c.rf.Get(RegR1HighLimit)))
	// A failed conversion (sensor dropout fault) freezes the monitoring
	// cycle: the chip holds the last commanded duty and the last alarm
	// condition rather than acting on garbage.
	var out bool
	var err error
	if c.manual() {
		out, err = c.temp.Outside(lo, hi)
	} else {
		var t float64
		t, err = c.temp.ReadChecked()
		if err == nil {
			tmin := float64(int8(c.rf.Get(RegTmin1)))
			trange := float64(c.rf.Get(RegPWM1Trange))
			minDuty := regToDuty(c.rf.Get(RegPWM1MinDuty))
			c.fan.SetDuty(StaticCurve(t, tmin, trange, minDuty))
			out = t < lo || t > hi
		}
	}

	// Limit monitoring: latch the out-of-limits bit.
	if err == nil {
		c.alarmCond = out
		if out {
			c.alarmLatched = true
		}
	}
}

// StaticCurve is the datasheet's automatic fan control law — the paper's
// Figure 1: minDuty below tmin, linear up to 100% at tmin+trange.
//
//thermlint:unit tempC=°C
//thermlint:unit tminC=°C
//thermlint:unit minDutyPercent=percent
//thermlint:unit percent
func StaticCurve(tempC, tminC, trangeC, minDutyPercent float64) float64 {
	if tempC <= tminC {
		return minDutyPercent
	}
	if trangeC <= 0 || tempC >= tminC+trangeC {
		return 100
	}
	frac := (tempC - tminC) / trangeC
	return minDutyPercent + frac*(100-minDutyPercent)
}

// dutyToReg converts a duty percentage to the chip's 8-bit PWM count.
//
//thermlint:unit percent=percent
//thermlint:unit duty8
func dutyToReg(percent float64) uint8 {
	if percent <= 0 {
		return 0
	}
	if percent >= 100 {
		return 0xFF
	}
	return uint8(math.Round(percent * 255 / 100))
}

// regToDuty converts the chip's 8-bit PWM count back to percent.
//
//thermlint:unit v=duty8
//thermlint:unit percent
func regToDuty(v uint8) float64 { return float64(v) * 100 / 255 }

// Driver is the host-side driver, speaking SMBus transactions to the
// chip exactly as the paper's Linux driver does.
type Driver struct {
	bus  *i2c.Bus
	addr uint8
}

// NewDriver probes the bus at addr and verifies the device and company
// IDs before returning a driver.
func NewDriver(bus *i2c.Bus, addr uint8) (*Driver, error) {
	id, err := bus.ReadByteData(addr, RegDeviceID)
	if err != nil {
		return nil, fmt.Errorf("adt7467: probe: %w", err)
	}
	cid, err := bus.ReadByteData(addr, RegCompanyID)
	if err != nil {
		return nil, fmt.Errorf("adt7467: probe: %w", err)
	}
	if id != DeviceID || cid != CompanyID {
		return nil, fmt.Errorf("adt7467: unexpected ID %#x/%#x at %#x", id, cid, addr)
	}
	return &Driver{bus: bus, addr: addr}, nil
}

// SetManual switches PWM1 between manual (host-controlled) and automatic
// (chip-controlled) mode.
func (d *Driver) SetManual(manual bool) error {
	v := uint8(BehaviourRemote1)
	if manual {
		v = BehaviourManual
	}
	return d.bus.WriteByteData(d.addr, RegPWM1Config, v)
}

// SetDuty writes the PWM1 duty in percent. The chip must be in manual
// mode for the write to move the fan.
//
//thermlint:unit percent=percent
func (d *Driver) SetDuty(percent float64) error {
	return d.bus.WriteByteData(d.addr, RegPWM1Duty, dutyToReg(percent))
}

// Duty reads back the PWM1 duty in percent.
//
//thermlint:unit percent
func (d *Driver) Duty() (float64, error) {
	v, err := d.bus.ReadByteData(d.addr, RegPWM1Duty)
	if err != nil {
		return 0, err
	}
	return regToDuty(v), nil
}

// TempC reads the remote-1 temperature in whole °C.
//
//thermlint:unit °C
func (d *Driver) TempC() (float64, error) {
	v, err := d.bus.ReadByteData(d.addr, RegRemote1Temp)
	if err != nil {
		return 0, err
	}
	return float64(int8(v)), nil
}

// FanRPM reads TACH1 and converts counts to RPM. A stalled fan reads 0.
func (d *Driver) FanRPM() (float64, error) {
	counts, err := d.bus.ReadWordData(d.addr, RegTach1Low)
	if err != nil {
		return 0, err
	}
	if counts == 0 || counts == 0xFFFF {
		return 0, nil
	}
	return TachConstant / float64(counts), nil
}

// Manual reads back whether PWM1 is in manual (host-controlled) mode.
func (d *Driver) Manual() (bool, error) {
	v, err := d.bus.ReadByteData(d.addr, RegPWM1Config)
	if err != nil {
		return false, err
	}
	return v&0xE0 == BehaviourManual, nil
}

// SetTempLimits programs the remote-1 low/high temperature limits in
// whole °C.
func (d *Driver) SetTempLimits(loC, hiC float64) error {
	if err := d.bus.WriteByteData(d.addr, RegR1LowLimit, uint8(int8(math.Round(loC)))); err != nil {
		return err
	}
	return d.bus.WriteByteData(d.addr, RegR1HighLimit, uint8(int8(math.Round(hiC))))
}

// TempLimits reads back the remote-1 low/high limits in °C.
func (d *Driver) TempLimits() (loC, hiC float64, err error) {
	lo, err := d.bus.ReadByteData(d.addr, RegR1LowLimit)
	if err != nil {
		return 0, 0, err
	}
	hi, err := d.bus.ReadByteData(d.addr, RegR1HighLimit)
	if err != nil {
		return 0, 0, err
	}
	return float64(int8(lo)), float64(int8(hi)), nil
}

// TempAlarm reads (and thereby re-arms) the interrupt status register
// and reports whether the remote-1 temperature violated its limits
// since the last read.
func (d *Driver) TempAlarm() (bool, error) {
	v, err := d.bus.ReadByteData(d.addr, RegIntStatus1)
	if err != nil {
		return false, err
	}
	return v&IntR1T != 0, nil
}

// ConfigureAuto programs the automatic-mode curve: Tmin, Trange and the
// minimum duty, then enables automatic mode.
func (d *Driver) ConfigureAuto(tminC, trangeC, minDutyPercent float64) error {
	if err := d.bus.WriteByteData(d.addr, RegTmin1, uint8(int8(math.Round(tminC)))); err != nil {
		return err
	}
	if err := d.bus.WriteByteData(d.addr, RegPWM1Trange, uint8(math.Round(trangeC))); err != nil {
		return err
	}
	if err := d.bus.WriteByteData(d.addr, RegPWM1MinDuty, dutyToReg(minDutyPercent)); err != nil {
		return err
	}
	return d.SetManual(false)
}
