package core

import (
	"errors"
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// newHybridRig builds a node with a full unified controller.
func newHybridRig(t testing.TB, pp int, maxDuty float64) (*node.Node, *Hybrid) {
	t.Helper()
	n, err := node.New(node.DefaultConfig("hybrid", 13))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	read := SysfsTemp(n.FS, n.Hwmon.TempInput)
	fan, err := NewController(DefaultConfig(pp), read,
		ActuatorBinding{Actuator: NewFanActuator(NewSysfsFanPort(n.FS, n.Hwmon), maxDuty)})
	if err != nil {
		t.Fatal(err)
	}
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	dvfs, err := NewTDVFS(DefaultTDVFSConfig(pp), read, act)
	if err != nil {
		t.Fatal(err)
	}
	return n, NewHybrid(fan, dvfs)
}

func runHybrid(n *node.Node, h *Hybrid, d time.Duration) {
	dt := 250 * time.Millisecond
	deadline := n.Elapsed() + d
	for n.Elapsed() < deadline {
		n.Step(dt)
		h.OnStep(n.Elapsed())
	}
}

func TestHybridFanActsFirstDVFSLater(t *testing.T) {
	n, h := newHybridRig(t, 50, 30) // weak cap: DVFS will be needed
	n.SetGenerator(workload.NewCPUBurn(nil))

	// Early in the run the fan should already be moving while DVFS has
	// not yet been triggered (the out-of-band knob leads).
	runHybrid(n, h, 30*time.Second)
	if n.Fan.Duty() < 15 {
		t.Errorf("fan duty %.1f after 30 s of cpu-burn; fan should lead", n.Fan.Duty())
	}
	if h.DVFS.Engaged() {
		t.Error("DVFS engaged before the fan had a chance")
	}

	runHybrid(n, h, 8*time.Minute)
	if !h.DVFS.Engaged() {
		t.Fatal("DVFS never engaged despite the 30% duty cap")
	}
	if n.TrueDieC() > 58 {
		t.Errorf("hybrid left the die at %.1f °C", n.TrueDieC())
	}
}

func TestHybridHoldsFanFloorWhileEngaged(t *testing.T) {
	n, h := newHybridRig(t, 50, 30)
	n.SetGenerator(workload.NewCPUBurn(nil))
	runHybrid(n, h, 9*time.Minute)
	if !h.DVFS.Engaged() {
		t.Skip("DVFS did not engage in this configuration")
	}
	// While engaged, the fan must not relax even as the die cools: run
	// on and check the duty never drops meaningfully below its level
	// at engagement.
	ref := n.Fan.Duty()
	low := ref
	dt := 250 * time.Millisecond
	for i := 0; i < 2400; i++ { // 10 more minutes
		n.Step(dt)
		h.OnStep(n.Elapsed())
		if !h.DVFS.Engaged() {
			break // restored: floor released, fine
		}
		if d := n.Fan.Duty(); d < low {
			low = d
		}
	}
	if low < ref-2 { // one 8-bit PWM LSB of slack
		t.Errorf("fan relaxed from %.1f%% to %.1f%% while DVFS was engaged", ref, low)
	}
}

func TestHybridNoDVFSWhenFanSuffices(t *testing.T) {
	n, h := newHybridRig(t, 50, 100) // full fan: holds the steady state alone
	n.SetGenerator(workload.NewCPUBurn(nil))
	runHybrid(n, h, 10*time.Minute)
	// The warm-up ramp may cross the threshold while still rising —
	// faster than the fan's thermal response — so a brief transient
	// engage-and-restore is legitimate. In steady state the in-band
	// knob must be released at the nominal frequency, with only a
	// handful of transitions ever taken.
	if h.DVFS.Engaged() {
		t.Error("DVFS still engaged although the fan alone holds the steady state")
	}
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("steady-state frequency %.1f GHz, want nominal 2.4", n.CPU.FreqGHz())
	}
	if n.CPU.Transitions() > 4 {
		t.Errorf("%d frequency transitions with a sufficient fan, want ≤4", n.CPU.Transitions())
	}
}

func TestHybridReleasesFloorAfterRestore(t *testing.T) {
	n, h := newHybridRig(t, 50, 30)
	n.SetGenerator(workload.NewCPUBurn(nil))
	runHybrid(n, h, 9*time.Minute)
	if !h.DVFS.Engaged() {
		t.Skip("DVFS did not engage")
	}
	// Load vanishes: temperature collapses, DVFS restores nominal, and
	// the fan is then free to spin down.
	n.SetGenerator(workload.Constant(0.02))
	runHybrid(n, h, 6*time.Minute)
	if h.DVFS.Engaged() {
		t.Fatal("DVFS still engaged long after the load ended")
	}
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("frequency %.1f GHz after cooldown, want restored 2.4", n.CPU.FreqGHz())
	}
	if n.Fan.Duty() > 25 {
		t.Errorf("fan still at %.1f%% on an idle machine; floor not released", n.Fan.Duty())
	}
}

func TestControllerSetHoldFloorBlocksDecreases(t *testing.T) {
	// Unit-level check of the floor mechanism with a scripted falling
	// temperature.
	vals := make([]float64, 80)
	for i := range vals {
		vals[i] = 60 - 0.5*float64(i)
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), s.read, ActuatorBinding{Actuator: fa})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHoldFloor(true)
	drive(c, 80)
	// Only the anchor application may have happened; the falling
	// temperature must not have produced downward moves.
	for i := 1; i < len(fa.applied); i++ {
		if fa.applied[i] < fa.applied[i-1] {
			t.Fatalf("mode decreased under hold-floor: %v", fa.applied)
		}
	}
}

// TestHybridLanesFailSafeOnDeadSensor: the two lanes share one sensor,
// so when it dies both escalate on their own bindings, and the fan is
// pinned at full duty.
func TestHybridLanesFailSafeOnDeadSensor(t *testing.T) {
	reads := 0
	read := func() (float64, error) {
		reads++
		if reads > 40 {
			return 0, errors.New("sensor dead")
		}
		return 50, nil
	}
	port := &fakeFanPort{}
	fan, err := NewController(DefaultConfig(50), read,
		ActuatorBinding{Actuator: NewFanActuator(port, 100)})
	if err != nil {
		t.Fatal(err)
	}
	_, act := newDVFSRig(t)
	dvfs, err := NewTDVFS(DefaultTDVFSConfig(50), read, act)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHybrid(fan, dvfs)
	for i := 1; i <= 120; i++ {
		h.OnStep(time.Duration(i) * 250 * time.Millisecond)
	}

	if !h.Fan.Binding().FailSafe() || !h.DVFS.Binding().FailSafe() {
		t.Fatalf("fail-safe fan=%v dvfs=%v, want both lanes escalated", h.Fan.Binding().FailSafe(), h.DVFS.Binding().FailSafe())
	}
	if len(h.Fan.FailSafeEvents()) == 0 || len(h.DVFS.Binding().FailSafeEvents()) == 0 {
		t.Error("a lane escalated without logging the edge")
	}
	if h.Fan.Binding().Errors() == 0 || h.DVFS.Binding().Errors() == 0 {
		t.Errorf("errors fan=%d dvfs=%d under a dead sensor", h.Fan.Binding().Errors(), h.DVFS.Binding().Errors())
	}
	if !h.DVFS.Engaged() {
		t.Error("dvfs lane not engaged under fail-safe")
	}
	if port.duty != 100 {
		t.Errorf("fan at %v%% under fail-safe, want 100", port.duty)
	}
}

// BenchmarkControlRound times one hybrid node's control round through
// the in-band sysfs ports: the temperature read, the fan array and
// tDVFS decisions, and any pwm1/scaling_setspeed write they make. The
// node is warmed under cpu-burn first and not stepped while timed.
func BenchmarkControlRound(b *testing.B) {
	n, h := newHybridRig(b, 50, 30)
	n.SetGenerator(workload.NewCPUBurn(nil))
	runHybrid(n, h, 2*time.Minute)
	now := n.Elapsed()
	period := 250 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += period
		h.OnStep(now)
	}
}
