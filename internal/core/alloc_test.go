package core

import (
	"testing"
	"time"

	"thermctl/internal/workload"
)

// TestPolicyRootsAllocationFree is the hot-path budget of the control
// engine's roots: after warm-up, one decision of the ctlarray policy
// (the dynamic fan controller's law), one of the threshold policy
// (tDVFS's law), one of the tach watchdog, and one step of the
// hybrid's two-lane engine allocate nothing. (The PID baseline's
// decision is checked in internal/baseline, which imports this
// package.)
func TestPolicyRootsAllocationFree(t *testing.T) {
	n, h := newHybridRig(t, 50, 30) // weak fan cap: tDVFS must engage
	n.SetGenerator(workload.NewCPUBurn(nil))
	runHybrid(n, h, 6*time.Minute) // warm-up: fill the windows
	if !h.DVFS.Engaged() {
		t.Fatal("tDVFS not engaged after warm-up; the engine step would skip the fan hold")
	}
	fan, dvfs := h.Fan.Binding(), h.DVFS.Binding()
	ctl, ok := fan.Policy().(*CtlArrayPolicy)
	if !ok {
		t.Fatalf("fan policy is %T, want *CtlArrayPolicy", fan.Policy())
	}
	thr, ok := dvfs.Policy().(*ThresholdPolicy)
	if !ok {
		t.Fatalf("DVFS policy is %T, want *ThresholdPolicy", dvfs.Policy())
	}
	eng, now := h.eng, n.Elapsed()
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	tach := n.FS.Open(n.Hwmon.FanInput)
	wdb, err := NewWatchdog(DefaultWatchdogConfig(), func() (float64, error) {
		v, err := tach.ReadInt()
		return float64(v), err
	}, act)
	if err != nil {
		t.Fatal(err)
	}
	wdb.OnStep(now) // one tach sample: a healthy fan, so Decide makes no transition
	wd := wdb.Policy().(*WatchdogPolicy)
	roots := []struct {
		name string
		fn   func()
	}{
		{"CtlArrayPolicy.Decide", func() { ctl.Decide(&fan.tx) }},
		{"ThresholdPolicy.Decide", func() { thr.Decide(&dvfs.tx) }},
		{"WatchdogPolicy.Decide", func() { wd.Decide(&wdb.tx) }},
		// One control round per call: both lanes sample every 250 ms
		// over a 4-entry level one, so four samples complete one round
		// and each call runs both decisions; a per-sample call would
		// hide one allocation per round in AllocsPerRun's integer
		// average.
		{"Engine.OnStep", func() {
			for i := 0; i < 4; i++ {
				now += 250 * time.Millisecond
				eng.OnStep(now)
			}
		}},
	}
	for _, r := range roots {
		if allocs := testing.AllocsPerRun(200, r.fn); allocs != 0 {
			t.Errorf("%s allocates %v per call, want 0", r.name, allocs)
		}
	}
}
