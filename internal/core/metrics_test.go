package core

import (
	"testing"
	"time"

	"thermctl/internal/metrics"
	"thermctl/internal/workload"
)

// snapValue returns the value of the named counter/gauge sample,
// failing the test when absent.
func snapValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no sample %q in snapshot", name)
	return 0
}

func TestHybridInstrumentMetrics(t *testing.T) {
	n, h := newHybridRig(t, 50, 30) // weak fan cap so DVFS engages
	reg := metrics.NewRegistry()
	h.InstrumentMetrics(reg)
	n.SetGenerator(workload.NewCPUBurn(nil))
	runHybrid(n, h, 10*time.Minute)

	rounds := snapValue(t, reg, "thermctl_controller_rounds_total")
	if rounds == 0 {
		t.Error("controller rounds counter never incremented")
	}
	if got := snapValue(t, reg, "thermctl_controller_mode_transitions_total"); got == 0 {
		t.Error("mode-transition counter never incremented under cpu-burn")
	}
	if h.DVFS.Engaged() {
		if got := snapValue(t, reg, "thermctl_tdvfs_downscales_total"); got == 0 {
			t.Error("tdvfs engaged but downscale counter is zero")
		}
		if got := snapValue(t, reg, "thermctl_tdvfs_engaged"); got != 1 {
			t.Errorf("engaged gauge = %v while DVFS engaged", got)
		}
		if got := snapValue(t, reg, "thermctl_hybrid_hold_rounds_total"); got == 0 {
			t.Error("hold-rounds counter is zero while DVFS engaged")
		}
		if got := snapValue(t, reg, "thermctl_controller_hold_floor"); got != 1 {
			t.Errorf("hold-floor gauge = %v while DVFS engaged", got)
		}
	}
	// Counter values must agree with the controller's own bookkeeping.
	if moves := float64(h.Fan.Moves(0)); moves != snapValue(t, reg, "thermctl_controller_mode_transitions_total") {
		t.Errorf("mode-transition counter = %v, want Moves(0) = %v",
			snapValue(t, reg, "thermctl_controller_mode_transitions_total"), moves)
	}
}

func TestWatchdogInstrumentMetrics(t *testing.T) {
	n, b, _ := newWatchdogRig(t)
	reg := metrics.NewRegistry()
	InstrumentWatchdog(b, reg)
	port := NewSysfsFanPort(n.FS, n.Hwmon)
	if err := port.SetDutyPercent(50); err != nil {
		t.Fatal(err)
	}
	dt := 250 * time.Millisecond
	run := func(d time.Duration) {
		deadline := n.Elapsed() + d
		for n.Elapsed() < deadline {
			n.Step(dt)
			b.OnStep(n.Elapsed())
		}
	}

	run(10 * time.Second)
	if got := snapValue(t, reg, "thermctl_watchdog_failures_total"); got != 0 {
		t.Fatalf("failures counter = %v before any failure", got)
	}
	n.Fan.SetFailed(true)
	run(15 * time.Second)
	if got := snapValue(t, reg, "thermctl_watchdog_failures_total"); got != 1 {
		t.Errorf("failures counter = %v after seized rotor, want 1", got)
	}
	if got := snapValue(t, reg, "thermctl_watchdog_emergency"); got != 1 {
		t.Errorf("emergency gauge = %v during failure, want 1", got)
	}
	n.Fan.SetFailed(false)
	run(20 * time.Second)
	if got := snapValue(t, reg, "thermctl_watchdog_recoveries_total"); got != 1 {
		t.Errorf("recoveries counter = %v after recovery, want 1", got)
	}
	if got := snapValue(t, reg, "thermctl_watchdog_emergency"); got != 0 {
		t.Errorf("emergency gauge = %v after recovery, want 0", got)
	}
}
