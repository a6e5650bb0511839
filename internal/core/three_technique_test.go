package core

import (
	"testing"
	"time"

	"thermctl/internal/acpi"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// These tests exercise the paper's central abstraction claim: the
// thermal control array unifies *any* set of techniques — here all
// three it names (fan speed, CPU frequency, ACPI throttling) under one
// controller and one Pp.

func TestUnifiedControllerOverThreeTechniques(t *testing.T) {
	n, err := node.New(node.DefaultConfig("three", 41))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	read := SysfsTemp(n.FS, n.Hwmon.TempInput)
	fanAct := NewFanActuator(NewSysfsFanPort(n.FS, n.Hwmon), 100)
	dvfsAct, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	throttleAct := acpi.NewActuator(n.FS, n.ACPI)

	ctl, err := NewController(DefaultConfig(50), read,
		fanAct,
		dvfsAct,
		throttleAct,
	)
	if err != nil {
		t.Fatal(err)
	}

	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 1200; i++ {
		n.Step(dt)
		ctl.Binding().OnStep(n.Elapsed())
	}
	// All three knobs respond to the same window and policy: under
	// sustained load the fan spins up, and the in-band knobs engage
	// proportionally to the same index dynamics.
	if n.Fan.Duty() < 20 {
		t.Errorf("fan did not engage: %.1f%%", n.Fan.Duty())
	}
	if ctl.Binding().Errors() != 0 {
		t.Errorf("controller errors: %d", ctl.Binding().Errors())
	}
	// The controller drove the temperature toward balance: well below
	// the uncontrolled ≈62 °C of cpu-burn at boot duty.
	if got := n.TrueDieC(); got > 56 {
		t.Errorf("three-technique control settled at %.1f °C", got)
	}
}

// TestThrottleOnlyCooling drives a fan-failed box with the throttle
// actuator alone: the unified controller must still bound the
// temperature using nothing but clock modulation.
func TestThrottleOnlyCooling(t *testing.T) {
	n, err := node.New(node.DefaultConfig("throttle-only", 43))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	n.Fan.SetFailed(true)

	ctl, err := NewController(DefaultConfig(25),
		SysfsTemp(n.FS, n.Hwmon.TempInput),
		acpi.NewActuator(n.FS, n.ACPI))
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 2400; i++ {
		n.Step(dt)
		ctl.Binding().OnStep(n.Elapsed())
	}
	if n.CPU.Throttle() >= 1 {
		t.Fatal("throttle never engaged on a fan-failed box")
	}
	// Uncontrolled, a dead fan under cpu-burn runs away well past 70;
	// throttling must hold it meaningfully below that.
	if got := n.TrueDieC(); got > 66 {
		t.Errorf("throttle-only control let the die reach %.1f °C", got)
	}
}

// TestCStatesCutHeatOnlyWhenIdle shows the sleep-state technique's
// asymmetry: deep C-states cool a communication-heavy (mostly idle)
// workload for free, and do nothing for cpu-burn — the per-technique
// effectiveness difference the unified array is built to express.
func TestCStatesCutHeatOnlyWhenIdle(t *testing.T) {
	run := func(util float64, maxState int64) float64 {
		n, err := node.New(node.DefaultConfig("cstates", 59))
		if err != nil {
			t.Fatal(err)
		}
		n.Settle(0)
		if err := n.FS.WriteInt(n.CStates.MaxState, maxState); err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(workload.Constant(util))
		for i := 0; i < 1600; i++ {
			n.Step(250 * time.Millisecond)
		}
		return n.TrueDieC()
	}

	// Mostly idle (comm-wait shaped): C3 is clearly cooler than C0.
	idleC0 := run(0.15, 0)
	idleC3 := run(0.15, 3)
	if idleC3 >= idleC0-0.3 {
		t.Errorf("C3 on an idle-heavy load: %.2f °C vs C0 %.2f — no benefit", idleC3, idleC0)
	}
	// Fully busy: nothing to gate.
	busyC0 := run(1.0, 0)
	busyC3 := run(1.0, 3)
	if d := busyC3 - busyC0; d < -0.3 || d > 0.3 {
		t.Errorf("C-state moved busy temperature by %.2f °C", d)
	}
}

// TestDVFSBeatsThrottlePerLostCycle quantifies why the effectiveness
// ordering matters: for a comparable throughput cut, DVFS (which drops
// the voltage) removes more heat than clock throttling (which does
// not).
func TestDVFSBeatsThrottlePerLostCycle(t *testing.T) {
	run := func(configure func(n *node.Node)) (tempC, throughput float64) {
		n, err := node.New(node.DefaultConfig("eff", 47))
		if err != nil {
			t.Fatal(err)
		}
		n.Settle(0)
		port := NewSysfsFanPort(n.FS, n.Hwmon)
		if err := port.SetDutyPercent(50); err != nil {
			t.Fatal(err)
		}
		configure(n)
		n.SetGenerator(workload.Constant(1))
		for i := 0; i < 2400; i++ {
			n.Step(250 * time.Millisecond)
		}
		return n.TrueDieC(), n.CPU.Work() / n.Elapsed().Seconds()
	}

	// DVFS to 1.8 GHz: 75% of nominal cycles, with a voltage drop.
	dvfsTemp, dvfsRate := run(func(n *node.Node) { n.CPU.SetFreqGHz(1.8) })
	// Throttle T2: 75% of cycles delivered, full voltage.
	thrTemp, thrRate := run(func(n *node.Node) { n.CPU.SetThrottle(0.75) })

	if diff := dvfsRate/thrRate - 1; diff > 0.02 || diff < -0.02 {
		t.Fatalf("throughputs not comparable: dvfs %.3f vs throttle %.3f GC/s", dvfsRate, thrRate)
	}
	if dvfsTemp >= thrTemp {
		t.Errorf("DVFS at %.2f °C not cooler than throttle at %.2f °C for equal throughput",
			dvfsTemp, thrTemp)
	}
	if thrTemp-dvfsTemp < 1 {
		t.Errorf("voltage advantage only %.2f °C; expected a clear margin", thrTemp-dvfsTemp)
	}
}
