package adt7467

import (
	"math"
	"testing"
	"time"
)

// FuzzRegisterWrites drives the chip's register surface with arbitrary
// bus traffic: the input is a sequence of three-byte operations, each
// a register write (limits, Tmin, Trange, PWM minimum and current duty,
// the mode bits, or any other address), a register read, or a
// temperature change followed by a monitoring cycle. Properties: nothing
// panics; the driven duty stays within [0, 100] after every operation;
// and, whatever the registers hold, the automatic curve is monotone in
// temperature once the chip is put back in automatic mode.
func FuzzRegisterWrites(f *testing.F) {
	f.Add([]byte{})
	// Tmin 45 °C, Trange 30 °C, minimum duty 20%, then a cycle at 60 °C.
	f.Add([]byte{0, RegTmin1, 45, 0, RegPWM1Trange, 30, 0, RegPWM1MinDuty, 51, 1, 60, 0})
	// Manual mode, a duty write, then back to automatic.
	f.Add([]byte{0, RegPWM1Config, BehaviourManual, 0, RegPWM1Duty, 200, 1, 70, 0, 0, RegPWM1Config, 0})
	// Degenerate curve: Trange 0, Tmin -128, minimum duty 100%.
	f.Add([]byte{0, RegPWM1Trange, 0, 0, RegTmin1, 0x80, 0, RegPWM1MinDuty, 0xFF, 1, 0x80, 0})
	// Limits crossed, reads of the status, duty and measurement registers.
	f.Add([]byte{0, RegR1LowLimit, 90, 0, RegR1HighLimit, 10, 1, 50, 128, 2, RegIntStatus1, 0, 2, RegPWM1Duty, 0, 2, RegRemote1Temp, 0})
	// Writes to read-only and unmodeled addresses.
	f.Add([]byte{0, RegDeviceID, 0, 0, RegTach1Low, 1, 0, 0xFF, 0xFF, 3, 0, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		set, fn, chip, drv := rig(t)
		checkDuty := func(when string, i int) {
			if d := fn.Duty(); !(d >= 0 && d <= 100) {
				t.Fatalf("%s %d: duty %v outside [0, 100]", when, i, d)
			}
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			op, a, b := ops[i]%4, ops[i+1], ops[i+2]
			switch op {
			case 0:
				_ = drv.bus.WriteByteData(drv.addr, a, b) // read-only registers refuse
			case 1:
				set(float64(int8(a)) + float64(b)/256)
				chip.Step(time.Second)
			case 2:
				if _, err := drv.bus.ReadByteData(drv.addr, a); err != nil {
					t.Fatalf("read of register %#x: %v", a, err)
				}
			case 3:
				if err := drv.SetManual(a&1 == 1); err != nil {
					t.Fatalf("mode change: %v", err)
				}
			}
			checkDuty("after operation", i/3)
		}

		// Automatic mode, the fuzzed curve registers kept: the driven
		// duty must not fall as the temperature rises.
		if err := drv.SetManual(false); err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(-1)
		for temp := -130.0; temp <= 130; temp += 0.5 {
			set(temp)
			chip.Step(time.Second)
			checkDuty("temperature sweep at °C", int(temp))
			if d := fn.Duty(); d < prev {
				t.Fatalf("auto duty fell from %v to %v at %v °C (Tmin %d, Trange %d, min duty %d)",
					prev, d, temp, int8(chip.rf.Get(RegTmin1)), chip.rf.Get(RegPWM1Trange), chip.rf.Get(RegPWM1MinDuty))
			}
			prev = fn.Duty()
		}
	})
}
