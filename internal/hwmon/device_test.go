package hwmon

import (
	"errors"
	"path"
	"testing"
	"time"

	"thermctl/internal/adt7467"
	"thermctl/internal/fan"
	"thermctl/internal/i2c"
	"thermctl/internal/sensor"
)

func mountRig(t *testing.T) (*FS, Chip, func(float64), *fan.Fan, *adt7467.Chip) {
	t.Helper()
	temp := 45.0
	src := sensor.SourceFunc(func() float64 { return temp })
	sens := sensor.New(sensor.Config{}, src, nil)
	f := fan.New(fan.Default(), 10)
	chipDev := new(adt7467.Chip)
	adt7467.NewChipAt(chipDev, new(i2c.RegisterFile), sens, f)
	bus := i2c.NewBus()
	if err := bus.Attach(adt7467.DefaultAddr, chipDev); err != nil {
		t.Fatal(err)
	}
	drv, err := adt7467.NewDriver(bus, adt7467.DefaultAddr)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFS()
	c := MountADT7467(fs, 0, drv, sens, f)
	return fs, c, func(v float64) { temp = v }, f, chipDev
}

func TestTempInputMillidegrees(t *testing.T) {
	fs, c, set, _, _ := mountRig(t)
	set(51.25)
	v, err := fs.ReadInt(c.TempInput)
	if err != nil {
		t.Fatal(err)
	}
	if v != 51250 {
		t.Errorf("temp1_input = %d, want 51250", v)
	}
}

func TestName(t *testing.T) {
	fs, c, _, _, _ := mountRig(t)
	name, err := fs.ReadFile(path.Dir(c.PWM) + "/name")
	if err != nil {
		t.Fatal(err)
	}
	if name != "adt7467\n" {
		t.Errorf("name = %q", name)
	}
}

func TestPWMEnableDefaultsAuto(t *testing.T) {
	fs, c, _, _, _ := mountRig(t)
	v, err := fs.ReadInt(c.PWMEnable)
	if err != nil {
		t.Fatal(err)
	}
	if v != PWMEnableAuto {
		t.Errorf("pwm1_enable = %d, want %d (chip boots in automatic mode)", v, PWMEnableAuto)
	}
}

func TestPWMWriteRequiresManualMode(t *testing.T) {
	fs, c, _, _, _ := mountRig(t)
	if err := fs.WriteInt(c.PWM, 128); !errors.Is(err, ErrPermission) {
		t.Errorf("pwm1 write in auto mode: err = %v, want ErrPermission", err)
	}
	if err := fs.WriteInt(c.PWMEnable, PWMEnableManual); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteInt(c.PWM, 128); err != nil {
		t.Errorf("pwm1 write in manual mode failed: %v", err)
	}
}

func TestPWMRoundTripThroughSysfs(t *testing.T) {
	fs, c, _, f, _ := mountRig(t)
	_ = fs.WriteInt(c.PWMEnable, PWMEnableManual)
	if err := fs.WriteInt(c.PWM, 191); err != nil { // ≈75%
		t.Fatal(err)
	}
	if d := f.Duty(); d < 74 || d > 76 {
		t.Errorf("fan duty after pwm1=191 is %v, want ≈75", d)
	}
	v, err := fs.ReadInt(c.PWM)
	if err != nil {
		t.Fatal(err)
	}
	if v != 191 {
		t.Errorf("pwm1 readback = %d, want 191", v)
	}
}

func TestFanInputReportsRPM(t *testing.T) {
	fs, c, _, f, _ := mountRig(t)
	_ = fs.WriteInt(c.PWMEnable, PWMEnableManual)
	_ = fs.WriteInt(c.PWM, 255)
	for i := 0; i < 40; i++ {
		f.Step(250 * time.Millisecond)
	}
	rpm, err := fs.ReadInt(c.FanInput)
	if err != nil {
		t.Fatal(err)
	}
	if rpm < 4200 || rpm > 4400 {
		t.Errorf("fan1_input = %d, want ≈4300", rpm)
	}
}

func TestModeSwitchBackToAuto(t *testing.T) {
	fs, c, set, f, chipDev := mountRig(t)
	_ = fs.WriteInt(c.PWMEnable, PWMEnableManual)
	_ = fs.WriteInt(c.PWM, 255)
	_ = fs.WriteInt(c.PWMEnable, PWMEnableAuto)
	set(30) // cold: auto curve wants PWMmin
	chipDev.Step(time.Second)
	if f.Duty() > 11 {
		t.Errorf("after returning to auto at 30 °C duty = %v, want ≈10", f.Duty())
	}
}

func TestTempMaxLimitAndAlarm(t *testing.T) {
	fs, c, set, _, chipDev := mountRig(t)
	// Program a 60 °C high limit through the hwmon file.
	if err := fs.WriteInt(c.TempMax, 60000); err != nil {
		t.Fatal(err)
	}
	if v, err := fs.ReadInt(c.TempMax); err != nil || v != 60000 {
		t.Fatalf("temp1_max readback = %d, %v", v, err)
	}
	// Below the limit: no alarm.
	set(50)
	chipDev.Step(time.Second)
	if v, _ := fs.ReadInt(c.TempMaxAlarm); v != 0 {
		t.Errorf("alarm = %d below the limit", v)
	}
	// Violate, then return: the latched alarm reads 1 once, then 0.
	set(65)
	chipDev.Step(time.Second)
	set(50)
	chipDev.Step(time.Second)
	if v, _ := fs.ReadInt(c.TempMaxAlarm); v != 1 {
		t.Error("latched alarm not reported")
	}
	if v, _ := fs.ReadInt(c.TempMaxAlarm); v != 0 {
		t.Error("alarm did not clear after read with condition gone")
	}
}

func TestPWMEnableRejectsOutOfRange(t *testing.T) {
	fs, c, _, _, _ := mountRig(t)
	if err := fs.WriteInt(c.PWMEnable, 5); !errors.Is(err, ErrInvalid) {
		t.Errorf("pwm1_enable=5: err = %v, want ErrInvalid", err)
	}
}
