package core

import (
	"errors"
	"testing"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/i2c"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

func newWatchdogRig(t *testing.T) (*node.Node, *Binding, *WatchdogPolicy) {
	t.Helper()
	n, err := node.New(node.DefaultConfig("wd", 121))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	fanInput := n.FS.Open(n.Hwmon.FanInput)
	rpm := func() (float64, error) {
		v, err := fanInput.ReadInt()
		return float64(v), err
	}
	b, err := NewWatchdog(rpm, act)
	if err != nil {
		t.Fatal(err)
	}
	return n, b, b.Policy().(*WatchdogPolicy)
}

func TestWatchdogValidation(t *testing.T) {
	_, act := newDVFSRig(t)
	if _, err := NewWatchdog(nil, act); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewWatchdog(func() (float64, error) { return 0, nil }, nil); err == nil {
		t.Error("nil actuator accepted")
	}
}

func TestWatchdogDeclaresFailureAndDownclocks(t *testing.T) {
	n, b, w := newWatchdogRig(t)
	// Fan running: pin it at 50% through sysfs.
	port := NewSysfsFanPort(n.FS, n.Hwmon)
	if err := port.SetDutyPercent(50); err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	run := func(steps int) {
		for i := 0; i < steps; i++ {
			n.Step(dt)
			b.OnStep(n.Elapsed())
		}
	}
	run(40) // 10 s healthy
	if w.Emergency() {
		t.Fatal("emergency with a healthy fan")
	}
	failAt := n.Elapsed()
	n.Fan.SetFailed(true)
	run(60) // 15 s: spin-down + 3 stalled samples well past
	if !w.Emergency() {
		t.Fatal("failure never declared")
	}
	if n.CPU.FreqGHz() != 1.0 {
		t.Errorf("frequency %.1f GHz during emergency, want 1.0", n.CPU.FreqGHz())
	}
	evs := w.Events()
	if len(evs) != 1 || !evs[0].Failure {
		t.Fatalf("events: %+v", evs)
	}
	// Detection latency: spin-down (~2 s) + 3 samples ≈ ≤10 s — far
	// faster than the ~40+ s a temperature threshold needs.
	if latency := evs[0].At - failAt; latency > 10*time.Second {
		t.Errorf("detection latency %v, want ≤10 s", latency)
	}
}

func TestWatchdogRecovers(t *testing.T) {
	n, b, w := newWatchdogRig(t)
	port := NewSysfsFanPort(n.FS, n.Hwmon)
	_ = port.SetDutyPercent(50)
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	run := func(steps int) {
		for i := 0; i < steps; i++ {
			n.Step(dt)
			b.OnStep(n.Elapsed())
		}
	}
	run(20)
	n.Fan.SetFailed(true)
	run(60)
	if !w.Emergency() {
		t.Fatal("setup: failure not declared")
	}
	n.Fan.SetFailed(false)
	run(60)
	if w.Emergency() {
		t.Fatal("emergency not cleared after fan recovery")
	}
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("frequency %.1f GHz after recovery, want 2.4", n.CPU.FreqGHz())
	}
	evs := w.Events()
	if len(evs) != 2 || evs[1].Failure {
		t.Fatalf("events: %+v", evs)
	}
}

func TestWatchdogIgnoresBriefStall(t *testing.T) {
	n, b, w := newWatchdogRig(t)
	port := NewSysfsFanPort(n.FS, n.Hwmon)
	_ = port.SetDutyPercent(50)
	dt := 250 * time.Millisecond
	run := func(steps int) {
		for i := 0; i < steps; i++ {
			n.Step(dt)
			b.OnStep(n.Elapsed())
		}
	}
	run(20)
	// A 2-second glitch (shorter than stallSamples at 1 s cadence plus
	// spin-down) must not trip: the tach only falls below 100 RPM well
	// after the rotor coasts down, which takes seconds itself.
	n.Fan.SetFailed(true)
	run(8) // 2 s
	n.Fan.SetFailed(false)
	run(60)
	if w.Emergency() {
		t.Error("brief stall declared an emergency")
	}
	if len(w.Events()) != 0 {
		t.Errorf("events logged for a brief stall: %+v", w.Events())
	}
}

func TestWatchdogBeatsThermalResponse(t *testing.T) {
	// Head-to-head: fan dies under cpu-burn. The watchdog-protected
	// node peaks cooler than an identical node protected by tDVFS
	// alone, because it reacts to the cause instead of the symptom.
	peak := func(useWatchdog bool) float64 {
		n, err := node.New(node.DefaultConfig("race", 127))
		if err != nil {
			t.Fatal(err)
		}
		n.Settle(0)
		port := NewSysfsFanPort(n.FS, n.Hwmon)
		_ = port.SetDutyPercent(60)
		act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
		if err != nil {
			t.Fatal(err)
		}
		var ctl interface{ OnStep(time.Duration) }
		if useWatchdog {
			fanInput := n.FS.Open(n.Hwmon.FanInput)
			rpm := func() (float64, error) {
				v, err := fanInput.ReadInt()
				return float64(v), err
			}
			ctl, err = NewWatchdog(rpm, act)
		} else {
			var d *TDVFS
			if d, err = NewTDVFS(DefaultTDVFSConfig(50), SysfsTemp(n.FS, n.Hwmon.TempInput), act); err == nil {
				ctl = d.Binding()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(workload.NewCPUBurn(nil))
		dt := 250 * time.Millisecond
		hottest := 0.0
		for i := 0; i < 2400; i++ { // 10 min
			n.Step(dt)
			ctl.OnStep(n.Elapsed())
			if n.Elapsed() == 90*time.Second {
				n.Fan.SetFailed(true)
			}
			if v := n.TrueDieC(); v > hottest {
				hottest = v
			}
		}
		return hottest
	}
	wd := peak(true)
	td := peak(false)
	if wd >= td {
		t.Errorf("watchdog peak %.2f °C not below tDVFS peak %.2f °C", wd, td)
	}
}

// TestWatchdogCountsNAKAsReadError: during an i2c NAK burst fan1_input
// fails with the driver's error instead of reading as a 0 RPM tach, so
// the watchdog counts read errors and never declares a stall.
func TestWatchdogCountsNAKAsReadError(t *testing.T) {
	n, b, w := newWatchdogRig(t)
	if err := NewSysfsFanPort(n.FS, n.Hwmon).SetDutyPercent(50); err != nil {
		t.Fatal(err)
	}
	plane, err := faults.NewPlane(faults.Plan{Schedules: []faults.Schedule{{
		Target:   "wd",
		Episodes: []faults.Episode{{Kind: faults.I2CNAK, Duration: faults.Dur(time.Hour), Rate: 1}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	n.AttachFaults(plane.Injector("wd"), rng.New(3))
	plane.OnStep(0)
	if v, err := n.FS.ReadInt(n.Hwmon.FanInput); !errors.Is(err, i2c.ErrNACK) {
		t.Fatalf("fan1_input during a NAK burst = %d, %v; want an i2c NAK error", v, err)
	}
	dt := 250 * time.Millisecond
	for i := 0; i < 40; i++ {
		n.Step(dt)
		plane.OnStep(n.Elapsed())
		b.OnStep(n.Elapsed())
	}
	if b.Errors() == 0 {
		t.Error("watchdog counted no read errors during the NAK burst")
	}
	if w.Emergency() || len(w.Events()) != 0 {
		t.Errorf("watchdog declared a stall on a healthy fan behind a NAKing bus: %+v", w.Events())
	}
}
