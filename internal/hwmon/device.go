package hwmon

import (
	"fmt"
	"math"

	"thermctl/internal/adt7467"
	"thermctl/internal/fan"
	"thermctl/internal/sensor"
)

// PWM enable values, following the Linux hwmon ABI for pwm[1-*]_enable.
const (
	PWMEnableFullSpeed = 0 // no control: fan at full speed
	PWMEnableManual    = 1 // manual: userspace writes pwm1
	PWMEnableAuto      = 2 // automatic: chip's static curve
)

// Chip bundles the attribute paths of one mounted hwmon chip.
type Chip struct {
	// Dir is the chip directory, e.g. /sys/class/hwmon/hwmon0.
	Dir string
	// TempInput is temp1_input (millidegrees C).
	TempInput string
	// TempMax is temp1_max (millidegrees C): the chip's high limit.
	TempMax string
	// TempMaxAlarm is temp1_max_alarm: 1 when the limit was violated
	// since the last read (the chip's latched interrupt status).
	TempMaxAlarm string
	// PWM is pwm1 (0..255 duty).
	PWM string
	// PWMEnable is pwm1_enable (see PWMEnable* constants).
	PWMEnable string
	// FanInput is fan1_input (RPM).
	FanInput string
}

// MountADT7467 lays out the standard hwmon attribute files for an
// ADT7467 driven through its i2c driver, at /sys/class/hwmon/hwmon<idx>:
//
//	name         "adt7467"
//	temp1_input  die temperature in millidegrees (from the hwmon sensor,
//	             which has the lm-sensors resolution, not the chip's
//	             whole-degree register)
//	temp1_label  "CPU"
//	pwm1         duty 0..255 (writes require pwm1_enable == 1)
//	pwm1_enable  1 manual / 2 automatic
//	fan1_input   tach RPM
//
// This is the file interface the paper's daemons use in-band.
func MountADT7467(fs *FS, idx int, drv *adt7467.Driver, sens *sensor.Sensor, f *fan.Fan) Chip {
	dir := fmt.Sprintf("/sys/class/hwmon/hwmon%d", idx)
	c := Chip{
		Dir:          dir,
		TempInput:    dir + "/temp1_input",
		TempMax:      dir + "/temp1_max",
		TempMaxAlarm: dir + "/temp1_max_alarm",
		PWM:          dir + "/pwm1",
		PWMEnable:    dir + "/pwm1_enable",
		FanInput:     dir + "/fan1_input",
	}
	fs.Register(dir+"/name", StaticFile("adt7467\n"))
	fs.Register(dir+"/temp1_label", StaticFile("CPU\n"))
	// temp1_input surfaces a failed conversion (sensor dropout fault) as
	// a read error, the EIO a dead sensor produces on real sysfs, so
	// in-band controllers can distinguish "no data" from a bogus 0 °C.
	fs.Register(c.TempInput, IntFuncFile{ReadFn: sens.CheckedMillidegrees})
	// Every other attribute is a register behind the i2c driver. A failed
	// bus transaction (a NAK burst, a transient bus fault) fails the read
	// with the driver's error, the EIO a real hwmon driver returns, so a
	// reader never mistakes a dead bus for a 0 RPM tach or a 0 duty.
	//
	// temp1_max / temp1_max_alarm bridge the chip's limit registers and
	// latched interrupt status into the standard hwmon names.
	fs.Register(c.TempMax, IntFuncFile{
		Min: -128000, Max: 127000,
		ReadFn: func() (int64, error) {
			_, hi, err := drv.TempLimits()
			if err != nil {
				return 0, err
			}
			return int64(hi * 1000), nil
		},
		WriteFn: func(v int64) error {
			lo, _, err := drv.TempLimits()
			if err != nil {
				return err
			}
			return drv.SetTempLimits(lo, float64(v)/1000)
		},
	})
	fs.Register(c.TempMaxAlarm, IntFuncFile{
		ReadFn: func() (int64, error) {
			a, err := drv.TempAlarm()
			if err != nil || !a {
				return 0, err
			}
			return 1, nil
		},
	})

	fs.Register(c.FanInput, IntFuncFile{
		ReadFn: func() (int64, error) {
			rpm, err := drv.FanRPM()
			if err != nil {
				return 0, err
			}
			return int64(math.Round(rpm)), nil
		},
	})

	// pwm1_enable mirrors the chip's mode bits; writing it flips the
	// chip between manual and automatic through the i2c driver.
	fs.Register(c.PWMEnable, IntFuncFile{
		Min: 1, Max: 2,
		ReadFn: func() (int64, error) {
			m, err := drv.Manual()
			if err != nil {
				return 0, err
			}
			if m {
				return PWMEnableManual, nil
			}
			return PWMEnableAuto, nil
		},
		WriteFn: func(v int64) error {
			return drv.SetManual(v == PWMEnableManual)
		},
	})

	fs.Register(c.PWM, IntFuncFile{
		Min: 0, Max: 255,
		ReadFn: func() (int64, error) {
			d, err := drv.Duty()
			if err != nil {
				return 0, err
			}
			return int64(math.Round(d * 255 / 100)), nil
		},
		WriteFn: func(v int64) error {
			if !manualMode(drv) {
				// The Linux ADT746x driver rejects duty writes while
				// the chip owns the fan.
				return fmt.Errorf("%w: pwm1 write while pwm1_enable=2", ErrPermission)
			}
			return drv.SetDuty(float64(v) * 100 / 255)
		},
	})
	return c
}

// manualMode asks the driver whether PWM1 is host-controlled. Kept as a
// helper so the hwmon layer never caches mode state: the BMC may flip
// the chip out-of-band between our reads.
func manualMode(drv *adt7467.Driver) bool {
	m, err := drv.Manual()
	return err == nil && m
}
