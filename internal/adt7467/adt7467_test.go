package adt7467

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"thermctl/internal/fan"
	"thermctl/internal/faults"
	"thermctl/internal/i2c"
	"thermctl/internal/rng"
	"thermctl/internal/sensor"
)

// rig builds a chip+driver pair around a controllable temperature.
func rig(t *testing.T) (set func(float64), f *fan.Fan, chip *Chip, drv *Driver) {
	t.Helper()
	temp := 40.0
	src := sensor.SourceFunc(func() float64 { return temp })
	sens := sensor.New(sensor.Config{}, src, nil) // noiseless for exact assertions
	f = fan.New(fan.Default(), 10)
	chip = newChip(sens, f)
	bus := i2c.NewBus()
	if err := bus.Attach(DefaultAddr, chip); err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(bus, DefaultAddr)
	if err != nil {
		t.Fatal(err)
	}
	return func(v float64) { temp = v }, f, chip, drv
}

func TestProbeVerifiesIDs(t *testing.T) {
	bus := i2c.NewBus()
	_ = bus.Attach(0x2E, i2c.NewRegisterFile()) // wrong chip: zero IDs
	if _, err := NewDriver(bus, 0x2E); err == nil {
		t.Error("probe accepted a chip with wrong IDs")
	}
	if _, err := NewDriver(bus, 0x4C); err == nil {
		t.Error("probe accepted an empty address")
	}
}

func TestTempReadback(t *testing.T) {
	set, _, _, drv := rig(t)
	set(51.4)
	got, err := drv.bus.ReadByteData(drv.addr, RegRemote1Temp)
	if err != nil {
		t.Fatal(err)
	}
	if got != 51 {
		t.Errorf("remote-1 temp = %v, want 51 (whole-degree register)", got)
	}
	set(-10)
	if got, _ := drv.bus.ReadByteData(drv.addr, RegRemote1Temp); int8(got) != -10 {
		t.Errorf("negative remote-1 temp = %v, want -10 (two's complement)", int8(got))
	}
}

func TestAutoModeFollowsStaticCurve(t *testing.T) {
	set, f, chip, _ := rig(t)

	set(30) // below Tmin=38
	chip.Step(time.Second)
	if math.Abs(f.Duty()-10) > 0.5 {
		t.Errorf("duty below Tmin = %v, want PWMmin 10", f.Duty())
	}

	set(60) // halfway: 38 + 22 of 44 → 10 + 0.5·90 = 55
	chip.Step(time.Second)
	if math.Abs(f.Duty()-55) > 1 {
		t.Errorf("duty at 60 °C = %v, want ≈55", f.Duty())
	}

	set(90) // above Tmax=82
	chip.Step(time.Second)
	if f.Duty() != 100 {
		t.Errorf("duty above Tmax = %v, want 100", f.Duty())
	}
}

func TestManualModeIgnoresTemperature(t *testing.T) {
	set, f, chip, drv := rig(t)
	if err := drv.SetManual(true); err != nil {
		t.Fatal(err)
	}
	if err := drv.SetDuty(42); err != nil {
		t.Fatal(err)
	}
	set(95)
	chip.Step(time.Second)
	if math.Abs(f.Duty()-42) > 0.5 {
		t.Errorf("manual duty = %v after hot reading, want 42", f.Duty())
	}
}

func TestManualWriteInAutoModeDoesNotMoveFan(t *testing.T) {
	set, f, chip, drv := rig(t)
	set(30)
	chip.Step(time.Second) // auto: 10%
	_ = drv.SetDuty(90)    // write while still in auto mode
	chip.Step(time.Second)
	if f.Duty() > 11 {
		t.Errorf("duty write in auto mode moved the fan to %v", f.Duty())
	}
}

func TestDutyReadback(t *testing.T) {
	_, _, chip, drv := rig(t)
	_ = drv.SetManual(true)
	_ = drv.SetDuty(75)
	chip.Step(time.Second)
	got, err := drv.Duty()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-75) > 0.5 {
		t.Errorf("duty readback = %v, want ≈75 (8-bit quantized)", got)
	}
}

func TestTachRoundTrip(t *testing.T) {
	_, f, chip, drv := rig(t)
	_ = drv.SetManual(true)
	_ = drv.SetDuty(100)
	for i := 0; i < 40; i++ {
		f.Step(250 * time.Millisecond)
	}
	chip.Step(time.Second)
	rpm, err := drv.FanRPM()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rpm-4300) > 50 {
		t.Errorf("tach RPM = %v, want ≈4300", rpm)
	}
}

func TestStalledFanReadsZero(t *testing.T) {
	_, f, chip, drv := rig(t)
	_ = drv.SetManual(true)
	_ = drv.SetDuty(0)
	for i := 0; i < 200; i++ {
		f.Step(250 * time.Millisecond)
	}
	chip.Step(time.Second)
	rpm, err := drv.FanRPM()
	if err != nil {
		t.Fatal(err)
	}
	if rpm != 0 {
		t.Errorf("stalled fan RPM = %v, want 0", rpm)
	}
}

func TestAutoCurveRegisters(t *testing.T) {
	set, f, chip, drv := rig(t)
	// Tmin 45 °C, Trange 30 °C, minimum duty 20%, then automatic mode.
	for _, w := range []struct{ reg, v uint8 }{
		{RegTmin1, 45}, {RegPWM1Trange, 30}, {RegPWM1MinDuty, dutyToReg(20)},
	} {
		if err := drv.bus.WriteByteData(drv.addr, w.reg, w.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := drv.SetManual(false); err != nil {
		t.Fatal(err)
	}
	set(44)
	chip.Step(time.Second)
	if math.Abs(f.Duty()-20) > 1 {
		t.Errorf("duty below new Tmin = %v, want 20", f.Duty())
	}
	set(60) // (60-45)/30 = 0.5 → 20 + 40 = 60
	chip.Step(time.Second)
	if math.Abs(f.Duty()-60) > 1 {
		t.Errorf("duty at 60 °C with new curve = %v, want ≈60", f.Duty())
	}
}

func TestMeasurementRegistersReadOnly(t *testing.T) {
	_, _, chip, _ := rig(t)
	for _, reg := range []uint8{RegRemote1Temp, RegTach1Low, RegTach1High, RegDeviceID, RegCompanyID} {
		if err := chip.WriteReg(reg, 0); err == nil {
			t.Errorf("write to measurement register %#x succeeded", reg)
		}
	}
}

func TestStaticCurveProperties(t *testing.T) {
	// The curve is monotone non-decreasing in temperature and bounded
	// by [minDuty, 100].
	if err := quick.Check(func(a, b uint8) bool {
		ta, tb := float64(a)/2, float64(b)/2 // 0..127.5 °C
		if ta > tb {
			ta, tb = tb, ta
		}
		da := StaticCurve(ta, 38, 44, 10)
		db := StaticCurve(tb, 38, 44, 10)
		return da <= db+1e-9 && da >= 10 && db <= 100
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestStaticCurveDegenerateRange(t *testing.T) {
	if got := StaticCurve(50, 38, 0, 10); got != 100 {
		t.Errorf("zero Trange above Tmin = %v, want 100 (step function)", got)
	}
	if got := StaticCurve(30, 38, 0, 10); got != 10 {
		t.Errorf("zero Trange below Tmin = %v, want minDuty", got)
	}
}

func TestTempAlarmLatchesAndClears(t *testing.T) {
	set, _, chip, drv := rig(t)
	if err := drv.SetTempLimits(10, 60); err != nil {
		t.Fatal(err)
	}
	set(45)
	chip.Step(time.Second)
	if a, err := drv.TempAlarm(); err != nil || a {
		t.Fatalf("in-limits alarm = %v, %v", a, err)
	}
	// Violate the high limit for one cycle.
	set(65)
	chip.Step(time.Second)
	set(45)
	chip.Step(time.Second)
	// The latch holds the past violation even though the condition is
	// gone...
	a, err := drv.TempAlarm()
	if err != nil {
		t.Fatal(err)
	}
	if !a {
		t.Error("alarm did not latch the past violation")
	}
	// ...and the read cleared it.
	if a, _ := drv.TempAlarm(); a {
		t.Error("alarm still set after read with condition gone")
	}
}

func TestTempAlarmPersistsWhileViolating(t *testing.T) {
	set, _, chip, drv := rig(t)
	if err := drv.SetTempLimits(10, 60); err != nil {
		t.Fatal(err)
	}
	set(70)
	chip.Step(time.Second)
	for i := 0; i < 3; i++ {
		if a, _ := drv.TempAlarm(); !a {
			t.Fatalf("alarm cleared on read %d while still violating", i)
		}
		chip.Step(time.Second)
	}
}

func TestLowLimitAlarm(t *testing.T) {
	set, _, chip, drv := rig(t)
	if err := drv.SetTempLimits(20, 80); err != nil {
		t.Fatal(err)
	}
	set(5)
	chip.Step(time.Second)
	if a, _ := drv.TempAlarm(); !a {
		t.Error("low-limit violation not flagged")
	}
}

func TestDutyRegisterQuantization(t *testing.T) {
	if dutyToReg(0) != 0 || dutyToReg(100) != 0xFF || dutyToReg(-5) != 0 || dutyToReg(200) != 0xFF {
		t.Error("dutyToReg bounds wrong")
	}
	for d := 0.0; d <= 100; d += 0.5 {
		rt := regToDuty(dutyToReg(d))
		if math.Abs(rt-d) > 0.25 {
			t.Fatalf("duty %v round-trips to %v (error > half an LSB)", d, rt)
		}
	}
}

func TestStepConvertsOncePerCycle(t *testing.T) {
	temp, calls := 60.0, 0
	src := sensor.SourceFunc(func() float64 { calls++; return temp })
	f := fan.New(fan.Default(), 10)
	chip := newChip(sensor.New(sensor.Config{}, src, nil), f)
	bus := i2c.NewBus()
	if err := bus.Attach(DefaultAddr, chip); err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(bus, DefaultAddr)
	if err != nil {
		t.Fatal(err)
	}
	for _, manual := range []bool{false, true} {
		if err := drv.SetManual(manual); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 3; cycle++ {
			calls = 0
			chip.Step(time.Second)
			if calls != 1 {
				t.Errorf("manual=%v cycle %d: %d sensor conversions, want 1", manual, cycle, calls)
			}
		}
	}
}

func TestDropoutCycleFreezesDutyAndAlarm(t *testing.T) {
	set, f, chip, drv := rig(t)
	dropout := faults.Static(faults.State{SensorDropout: true})
	// cycle runs one monitoring cycle at temperature c, under a sensor
	// dropout when drop is set.
	cycle := func(c float64, drop bool) {
		set(c)
		if drop {
			chip.temp.AttachInjector(dropout)
		} else {
			chip.temp.AttachInjector(nil)
		}
		chip.Step(time.Second)
	}
	alarm := func() bool {
		t.Helper()
		a, err := drv.TempAlarm()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// In limits, then a hot reading the chip never sees.
	cycle(45, false)
	duty := f.Duty()
	cycle(95, true)
	if f.Duty() != duty {
		t.Errorf("dropout cycle moved the duty from %v to %v", duty, f.Duty())
	}
	if alarm() {
		t.Error("dropout cycle raised the alarm from a reading it never took")
	}

	// Violating, then a cool reading the chip never sees: the duty and
	// the live violation both hold, so the latch re-arms on every read.
	cycle(95, false)
	duty = f.Duty()
	cycle(45, true)
	if f.Duty() != duty {
		t.Errorf("dropout cycle moved the duty from %v to %v", duty, f.Duty())
	}
	for i := 0; i < 2; i++ {
		if !alarm() {
			t.Fatalf("alarm read %d after a dropout cycle cleared the held violation", i)
		}
	}
}

// BenchmarkChipStepAuto prices one monitoring cycle as a node pays it:
// a noisy sensor whose conversion tick advances every cycle, so each
// cycle draws fresh Box-Muller noise.
func BenchmarkChipStepAuto(b *testing.B) {
	src := sensor.SourceFunc(func() float64 { return 55 })
	sens := sensor.New(sensor.Default(), src, rng.New(1))
	var tick uint64
	sens.SetTickSource(func() uint64 { return tick })
	f := fan.New(fan.Default(), 10)
	chip := newChip(sens, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Step(50 * time.Millisecond)
		tick++
	}
}

// BenchmarkChipStepManual prices one manual-mode monitoring cycle as a
// node under host fan control pays it: the same noisy, tick-advancing
// sensor as BenchmarkChipStepAuto, with the reading well inside the
// default limits, so the comparator decides without drawing the noise.
func BenchmarkChipStepManual(b *testing.B) {
	src := sensor.SourceFunc(func() float64 { return 55 })
	sens := sensor.New(sensor.Default(), src, rng.New(1))
	var tick uint64
	sens.SetTickSource(func() uint64 { return tick })
	f := fan.New(fan.Default(), 10)
	chip := newChip(sens, f)
	if err := chip.WriteReg(RegPWM1Config, BehaviourManual); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Step(50 * time.Millisecond)
		tick++
	}
}

// TestDutyRegisterReadsDrivenDuty checks that 0x30 reads back the duty
// the fan is driven at whenever it is read, in both modes and between
// monitoring cycles, not only after one.
func TestDutyRegisterReadsDrivenDuty(t *testing.T) {
	set, f, chip, _ := rig(t)
	read := func() uint8 {
		t.Helper()
		v, err := chip.ReadReg(RegPWM1Duty)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got, want := read(), dutyToReg(f.Duty()); got != want {
		t.Errorf("before the first cycle: 0x30 = %#x, want %#x", got, want)
	}
	for _, c := range []float64{30, 47.5, 60, 90} {
		set(c)
		chip.Step(time.Second)
		if got, want := read(), dutyToReg(f.Duty()); got != want {
			t.Errorf("auto at %v °C: 0x30 = %#x, want %#x", c, got, want)
		}
	}
	for _, manual := range []bool{false, true} {
		mode := uint8(BehaviourRemote1)
		if manual {
			mode = BehaviourManual
		}
		if err := chip.WriteReg(RegPWM1Config, mode); err != nil {
			t.Fatal(err)
		}
		// The fan commanded between cycles by another path.
		f.SetDuty(33)
		if got, want := read(), dutyToReg(33); got != want {
			t.Errorf("manual=%v between cycles: 0x30 = %#x, want %#x", manual, got, want)
		}
	}
}

// TestManualDutyWriteReadsBackExactly writes every register value in
// manual mode and reads it straight back, with no cycle in between.
func TestManualDutyWriteReadsBackExactly(t *testing.T) {
	_, f, chip, _ := rig(t)
	if err := chip.WriteReg(RegPWM1Config, BehaviourManual); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v++ {
		if err := chip.WriteReg(RegPWM1Duty, uint8(v)); err != nil {
			t.Fatal(err)
		}
		got, err := chip.ReadReg(RegPWM1Duty)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint8(v) || f.Duty() != regToDuty(uint8(v)) {
			t.Fatalf("wrote %#x: reads back %#x, fan at %v%%", v, got, f.Duty())
		}
	}
}

// TestAutoDutyWriteDoesNotStick writes 0x30 in automatic mode: the fan
// keeps the curve's duty and the register reads that duty, not the
// written value.
func TestAutoDutyWriteDoesNotStick(t *testing.T) {
	set, f, chip, _ := rig(t)
	set(30)
	chip.Step(time.Second)
	duty := f.Duty()
	if err := chip.WriteReg(RegPWM1Duty, 0xE6); err != nil {
		t.Fatal(err)
	}
	got, err := chip.ReadReg(RegPWM1Duty)
	if err != nil {
		t.Fatal(err)
	}
	if got != dutyToReg(duty) || f.Duty() != duty {
		t.Errorf("auto-mode write of 0xe6: 0x30 = %#x, fan at %v%%; want %#x at %v%%", got, f.Duty(), dutyToReg(duty), duty)
	}
}

// TestCurveAndLimitWritesActNextCycle programs the auto curve and the
// limits over the bus and checks that the next cycle's duty and limit
// violation are exactly what decoding the registers gives.
func TestCurveAndLimitWritesActNextCycle(t *testing.T) {
	set, f, chip, _ := rig(t)
	cases := []struct{ tmin, trange, minDuty, lo, hi uint8 }{
		{38, 44, dutyToReg(10), 0, 81},
		{45, 30, 0x33, 10, 60},
		{0xF0, 100, 0, 0xEC, 30}, // Tmin -16 °C, low limit -20 °C
		{60, 0, 0xFF, 50, 55},    // zero Trange: a step at Tmin
		{20, 255, 0x80, 0x80, 0x7F},
	}
	temps := []float64{-25, 0, 25.5, 45, 59.9, 60, 72.25, 100}
	for _, tc := range cases {
		for reg, v := range map[uint8]uint8{
			RegTmin1: tc.tmin, RegPWM1Trange: tc.trange, RegPWM1MinDuty: tc.minDuty,
			RegR1LowLimit: tc.lo, RegR1HighLimit: tc.hi,
		} {
			if err := chip.WriteReg(reg, v); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi := float64(int8(tc.lo)), float64(int8(tc.hi))
		for _, c := range temps {
			set(c)
			chip.Step(time.Second)
			want := StaticCurve(c, float64(int8(tc.tmin)), float64(tc.trange), regToDuty(tc.minDuty))
			if math.Float64bits(f.Duty()) != math.Float64bits(want) {
				t.Errorf("%+v at %v °C: duty %v, want %v", tc, c, f.Duty(), want)
			}
			if wantOut := c < lo || c > hi; chip.alarmCond != wantOut {
				t.Errorf("%+v at %v °C: limit violation %v, want %v", tc, c, chip.alarmCond, wantOut)
			}
		}
	}
}

// newChip builds a chip with its own register map.
func newChip(temp *sensor.Sensor, f *fan.Fan) *Chip {
	c := new(Chip)
	NewChipAt(c, new(i2c.RegisterFile), temp, f)
	return c
}
