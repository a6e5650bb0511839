package cstates

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"thermctl/internal/core"
	"thermctl/internal/cpu"
	"thermctl/internal/hwmon"
)

func rig() (*hwmon.FS, *cpu.CPU, Paths) {
	fs := hwmon.NewFS()
	c := cpu.New(cpu.DefaultConfig())
	return fs, c, Mount(fs, 0, c)
}

func TestTableShallowToDeep(t *testing.T) {
	tab := Table()
	if len(tab) != 4 || tab[0].IdleFactor != 1 {
		t.Fatalf("table: %+v, want C0 (no gating) to C3", tab)
	}
	for i := 1; i < len(tab); i++ {
		if tab[i].IdleFactor >= tab[i-1].IdleFactor {
			t.Errorf("idle factor not decreasing at C%d", i)
		}
	}
}

func TestMountAppliesIdleFactor(t *testing.T) {
	fs, c, p := rig()
	if err := fs.WriteInt(p.MaxState, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.IdleFactor(); got != 0.25 {
		t.Errorf("idle factor after C3 = %v", got)
	}
	if v, _ := fs.ReadInt(p.MaxState); v != 3 {
		t.Errorf("readback = %d", v)
	}
	if err := fs.WriteInt(p.MaxState, 9); err == nil {
		t.Error("out-of-range state accepted")
	}
}

// TestActuatorAllocationFree: Apply sits on the control round's
// actuation path and allocates nothing after warm-up.
func TestActuatorAllocationFree(t *testing.T) {
	fs, _, p := rig()
	a := NewActuator(fs, p)
	m := 0
	apply := func() {
		m = (m + 1) % a.NumModes()
		if err := a.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	if allocs := testing.AllocsPerRun(200, apply); allocs != 0 {
		t.Errorf("Apply allocates %v per call, want 0", allocs)
	}
}

func TestDeepIdleCutsIdlePowerOnly(t *testing.T) {
	fs, c, p := rig()
	c.SetUtilization(0)
	shallowIdle := c.Power(40)
	_ = fs.WriteInt(p.MaxState, 3)
	deepIdle := c.Power(40)
	if deepIdle >= shallowIdle {
		t.Errorf("C3 idle power %v not below C0 idle power %v", deepIdle, shallowIdle)
	}
	// Under full utilization there is no idle residual to gate: the
	// C-state must be free.
	c.SetUtilization(1)
	busyDeep := c.Power(50)
	_ = fs.WriteInt(p.MaxState, 0)
	busyShallow := c.Power(50)
	if busyDeep != busyShallow {
		t.Errorf("C-state changed busy power: %v vs %v", busyDeep, busyShallow)
	}
}

func TestActuatorRoundTrip(t *testing.T) {
	fs, c, p := rig()
	a := NewActuator(fs, p)
	if a.NumModes() != 4 || a.Name() == "" {
		t.Fatal("metadata")
	}
	for m := 0; m < 4; m++ {
		if err := a.Apply(m); err != nil {
			t.Fatal(err)
		}
		if got, err := a.maxState.ReadInt(); err != nil || got != int64(m) {
			t.Errorf("Apply(%d) -> max_cstate %d, %v", m, got, err)
		}
	}
	if err := a.Apply(99); err != nil {
		t.Errorf("Apply clamps: %v", err)
	}
	if c.IdleFactor() != 0.25 {
		t.Errorf("final idle factor %v", c.IdleFactor())
	}
}

func TestActuatorErrorsOnMissingFile(t *testing.T) {
	fs := hwmon.NewFS()
	a := NewActuator(fs, Paths{MaxState: "/sys/devices/system/cpu/cpu0/cpuidle/max_state"})
	if err := a.Apply(1); err == nil {
		t.Error("Apply on an unmounted cpuidle file succeeded")
	}
}

// TestActuatorErrorsPropagateFaults mirrors what a fault campaign does
// to the in-band path: the cpuidle attribute starts returning errors
// mid-run, and the actuator must surface every one (the engine's retry
// and fail-safe logic depends on seeing them).
func TestActuatorErrorsPropagateFaults(t *testing.T) {
	fs := hwmon.NewFS()
	p := Paths{MaxState: "/sys/devices/system/cpu/cpu0/cpuidle/max_state"}
	healthy := true
	current := int64(0)
	fs.Register(p.MaxState, hwmon.FuncFile{
		ReadFn: func() (string, error) {
			if !healthy {
				return "", errors.New("cpuidle: bus fault")
			}
			return strconv.FormatInt(current, 10), nil
		},
		WriteFn: func(s string) error {
			if !healthy {
				return errors.New("cpuidle: bus fault")
			}
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return err
			}
			current = v
			return nil
		},
	})
	a := NewActuator(fs, p)
	if err := a.Apply(2); err != nil {
		t.Fatalf("healthy Apply: %v", err)
	}
	healthy = false
	if err := a.Apply(3); err == nil {
		t.Error("Apply during the fault episode succeeded")
	}
	healthy = true
	if got, err := a.maxState.ReadInt(); err != nil || got != 2 {
		t.Errorf("after recovery max_cstate = %d, %v; want the pre-fault state 2", got, err)
	}
}

// TestFailSafeDrivesDeepestState runs the actuator under the unified
// controller with a dead temperature sensor: escalation must pin the
// C-state array at its end — the deepest state, maximum heat removal —
// exactly as it pins a fan at full duty.
func TestFailSafeDrivesDeepestState(t *testing.T) {
	fs, _, p := rig()
	read := func() (float64, error) { return 0, errors.New("sensor dead") }
	ctl, err := core.NewController(core.DefaultConfig(50), read,
		NewActuator(fs, p))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		ctl.Binding().OnStep(time.Duration(i) * 250 * time.Millisecond)
	}
	if !ctl.Binding().FailSafe() {
		t.Fatal("fail-safe never engaged under a dead sensor")
	}
	if v, _ := fs.ReadInt(p.MaxState); v != 3 {
		t.Errorf("fail-safe left max_state at %d, want the deepest state 3", v)
	}
}
