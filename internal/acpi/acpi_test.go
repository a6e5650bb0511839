package acpi

import (
	"math"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cpu"
	"thermctl/internal/hwmon"
)

func TestFracLadder(t *testing.T) {
	if Frac(0) != 1.0 {
		t.Errorf("T0 = %v, want 1.0", Frac(0))
	}
	if Frac(7) != 0.125 {
		t.Errorf("T7 = %v, want 0.125", Frac(7))
	}
	for i := 1; i < NumTStates; i++ {
		if Frac(i) >= Frac(i-1) {
			t.Fatalf("Frac not strictly decreasing at T%d", i)
		}
	}
	if Frac(-1) != 1.0 || Frac(99) != 0.125 {
		t.Error("Frac does not clamp")
	}
}

func TestStateForFracRoundTrip(t *testing.T) {
	for s := 0; s < NumTStates; s++ {
		if got := StateForFrac(Frac(s)); got != s {
			t.Errorf("StateForFrac(Frac(%d)) = %d", s, got)
		}
	}
	if got := StateForFrac(0.9); got != 1 {
		t.Errorf("StateForFrac(0.9) = %d, want 1 (87.5%%)", got)
	}
	if got := StateForFrac(0); got != 7 {
		t.Errorf("StateForFrac(0) = %d, want deepest", got)
	}
}

func mountRig(t *testing.T) (*hwmon.FS, *cpu.CPU, Paths) {
	t.Helper()
	fs := hwmon.NewFS()
	c := cpu.New(cpu.DefaultConfig())
	p := Mount(fs, 0, c)
	return fs, c, p
}

func TestMountReadFormat(t *testing.T) {
	fs, _, p := mountRig(t)
	body, err := fs.ReadFile(p.Throttling)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "state count:             8") {
		t.Errorf("missing state count:\n%s", body)
	}
	if !strings.Contains(body, "active state:            T0") {
		t.Errorf("fresh CPU not at T0:\n%s", body)
	}
	if !strings.Contains(body, " *T0: 100%") {
		t.Errorf("active marker missing:\n%s", body)
	}
}

func TestMountWriteThrottles(t *testing.T) {
	fs, c, p := mountRig(t)
	if err := fs.WriteFile(p.Throttling, "4\n"); err != nil {
		t.Fatal(err)
	}
	if got := c.Throttle(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("throttle after T4 = %v, want 0.5", got)
	}
	body, _ := fs.ReadFile(p.Throttling)
	if !strings.Contains(body, "active state:            T4") {
		t.Errorf("readback:\n%s", body)
	}
}

func TestMountWriteValidation(t *testing.T) {
	fs, _, p := mountRig(t)
	for _, bad := range []string{"8", "-1", "x"} {
		if err := fs.WriteFile(p.Throttling, bad); err == nil {
			t.Errorf("write %q accepted", bad)
		}
	}
}

func TestThrottleAffectsWorkAndPower(t *testing.T) {
	c := cpu.New(cpu.DefaultConfig())
	c.SetUtilization(1)
	full := c.Power(50)
	w0 := c.Step(time.Second)
	c.SetThrottle(0.5)
	half := c.Power(50)
	w1 := c.Step(time.Second)
	if math.Abs(w1-w0/2) > 1e-9 {
		t.Errorf("work at T4 = %v, want half of %v", w1, w0)
	}
	if half >= full {
		t.Error("power did not drop under throttling")
	}
	// Throttling cuts dynamic power linearly, so the drop is smaller
	// than halving would be with voltage scaling: leakage is untouched.
	if full-half > full*0.45 {
		t.Errorf("throttle saved %.1f W of %.1f W — too much (no voltage drop)", full-half, full)
	}
}

func TestActuatorRoundTrip(t *testing.T) {
	fs, c, p := mountRig(t)
	a := NewActuator(fs, p)
	if a.NumModes() != NumTStates || a.Name() == "" {
		t.Fatal("actuator metadata")
	}
	for _, m := range []int{0, 3, 7} {
		if err := a.Apply(m); err != nil {
			t.Fatal(err)
		}
		if want := 1 - float64(m)/NumTStates; math.Abs(c.Throttle()-want) > 1e-9 {
			t.Errorf("Apply(%d): CPU throttle %v, want %v", m, c.Throttle(), want)
		}
	}
	if math.Abs(c.Throttle()-0.125) > 1e-9 {
		t.Errorf("CPU throttle = %v after T7", c.Throttle())
	}
	if err := a.Apply(99); err != nil {
		t.Errorf("Apply clamps: %v", err)
	}
}

func TestParseActive(t *testing.T) {
	if _, err := ParseActive("nonsense"); err == nil {
		t.Error("parsed nonsense")
	}
	if _, err := ParseActive("active state:            TX\n"); err == nil {
		t.Error("parsed TX")
	}
	v, err := ParseActive("state count: 8\nactive state:            T5\n")
	if err != nil || v != 5 {
		t.Errorf("ParseActive = %d, %v", v, err)
	}
}
