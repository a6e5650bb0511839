package core

import (
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/workload"
)

func newDVFSRig(t *testing.T) (*node.Node, *DVFSActuator) {
	t.Helper()
	n, err := node.New(node.DefaultConfig("tdvfs", 3))
	if err != nil {
		t.Fatal(err)
	}
	act, err := NewDVFSActuator(NewSysfsFreqPort(n.FS, n.Cpufreq))
	if err != nil {
		t.Fatal(err)
	}
	return n, act
}

func driveTDVFS(d *TDVFS, samples int, temp func(i int) float64) {
	period := 250 * time.Millisecond
	for i := 1; i <= samples; i++ {
		d.OnStep(time.Duration(i) * period)
	}
	_ = temp
}

func TestTDVFSValidation(t *testing.T) {
	_, act := newDVFSRig(t)
	if _, err := NewTDVFS(DefaultTDVFSConfig(50), nil, act); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewTDVFS(DefaultTDVFSConfig(50), constTemp(40), nil); err == nil {
		t.Error("nil actuator accepted")
	}
	bad := DefaultTDVFSConfig(50)
	bad.SamplePeriod = 0
	if _, err := NewTDVFS(bad, constTemp(40), act); err == nil {
		t.Error("zero period accepted")
	}
}

func TestTDVFSStaysAtNominalBelowThreshold(t *testing.T) {
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(50), constTemp(48), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 200, nil)
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("frequency %v GHz with temp below threshold, want 2.4", n.CPU.FreqGHz())
	}
	if d.Downscales() != 0 {
		t.Errorf("Downscales = %d", d.Downscales())
	}
}

// risingTemp returns a reader climbing ratePerSample °C per read from
// start, capped at cap.
func risingTemp(start, ratePerSample, cap float64) TempReader {
	i := 0
	return func() (float64, error) {
		v := start + ratePerSample*float64(i)
		i++
		if v > cap {
			v = cap
		}
		return v, nil
	}
}

func TestTDVFSScalesDownOnRisingAboveThreshold(t *testing.T) {
	n, act := newDVFSRig(t)
	// Climb 0.1 °C per sample from 50: above threshold and rising.
	d, err := NewTDVFS(DefaultTDVFSConfig(50), risingTemp(50, 0.1, 58), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 60, nil)
	if n.CPU.FreqGHz() != 2.2 {
		t.Errorf("frequency %v GHz, want 2.2 after one Pp=50 scale-down", n.CPU.FreqGHz())
	}
	if d.Downscales() != 1 {
		t.Errorf("Downscales = %d, want 1 (cooldown must hold further changes)", d.Downscales())
	}
	if _, trig := d.TriggeredAt(); !trig {
		t.Error("TriggeredAt not set")
	}
}

func TestTDVFSHoldsWhenStableAboveThreshold(t *testing.T) {
	// The Figure 9 behaviour: temperature steady at 54 °C — above the
	// 51 °C threshold but not rising and below the emergency margin —
	// must NOT trigger further scaling. tDVFS stops the rise; it does
	// not chase the threshold at any performance cost.
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(50), constTemp(54), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 400, nil)
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("stable-above-threshold moved frequency to %v GHz", n.CPU.FreqGHz())
	}
	if d.Downscales() != 0 {
		t.Errorf("Downscales = %d, want 0", d.Downscales())
	}
}

func TestTDVFSEmergencyBackstop(t *testing.T) {
	// Consistently above threshold+margin scales down even with a flat
	// trend: a creeping rise must not reach the hardware throttle
	// point.
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(50), constTemp(60), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 60, nil)
	if n.CPU.FreqGHz() >= 2.4 {
		t.Errorf("emergency backstop did not fire at 60 °C: %v GHz", n.CPU.FreqGHz())
	}
}

func TestTDVFSPp25JumpsTwoStates(t *testing.T) {
	// Paper Figure 10 ①: with Pp=25 the first scale-down goes
	// 2.4 → 2.0 GHz.
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(25), risingTemp(50, 0.1, 58), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 60, nil)
	if n.CPU.FreqGHz() != 2.0 {
		t.Errorf("Pp=25 first scale-down landed at %v GHz, want 2.0", n.CPU.FreqGHz())
	}
}

func TestTDVFSRestoresNominalDirectly(t *testing.T) {
	// Paper Figure 10 ②: scale-up returns to the original frequency in
	// one step.
	n, act := newDVFSRig(t)
	hot := true
	rise := risingTemp(50, 0.1, 58)
	read := func() (float64, error) {
		if hot {
			return rise()
		}
		return 46, nil
	}
	d, err := NewTDVFS(DefaultTDVFSConfig(25), read, act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 60, nil)
	if n.CPU.FreqGHz() != 2.0 {
		t.Fatalf("setup: frequency %v, want 2.0", n.CPU.FreqGHz())
	}
	hot = false
	period := 250 * time.Millisecond
	for i := 61; i <= 200; i++ {
		d.OnStep(time.Duration(i) * period)
	}
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("after cooling, frequency %v GHz, want direct restore to 2.4", n.CPU.FreqGHz())
	}
	if d.Upscales() != 1 {
		t.Errorf("Upscales = %d, want 1", d.Upscales())
	}
}

func TestTDVFSIgnoresShortSpikes(t *testing.T) {
	// A 2-second spike above threshold must not trigger: the level-two
	// FIFO requires 5 consecutive seconds above. This is the red-circle
	// behaviour in the paper's Figure 8.
	i := 0
	read := func() (float64, error) {
		i++
		// Samples 40..48 (2 s) are hot; everything else cool.
		if i >= 40 && i < 48 {
			return 55, nil
		}
		return 47, nil
	}
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(50), read, act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 200, nil)
	if n.CPU.FreqGHz() != 2.4 {
		t.Errorf("short spike triggered tDVFS: frequency %v", n.CPU.FreqGHz())
	}
	if d.Downscales() != 0 {
		t.Errorf("Downscales = %d, want 0", d.Downscales())
	}
}

func TestTDVFSHysteresisPreventsChatter(t *testing.T) {
	// Temperature settles between threshold-hysteresis and threshold:
	// after a scale-down it must NOT bounce back up.
	hot := true
	rise := risingTemp(50, 0.1, 58)
	read := func() (float64, error) {
		if hot {
			return rise()
		}
		return 49.5, nil // below threshold 51, above threshold-hyst 48
	}
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(50), read, act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 60, nil)
	if n.CPU.FreqGHz() != 2.2 {
		t.Fatalf("setup failed: %v GHz", n.CPU.FreqGHz())
	}
	hot = false
	period := 250 * time.Millisecond
	for i := 61; i <= 260; i++ {
		d.OnStep(time.Duration(i) * period)
	}
	if n.CPU.FreqGHz() != 2.2 {
		t.Errorf("frequency chattered to %v GHz inside the hysteresis band", n.CPU.FreqGHz())
	}
	if d.Upscales() != 0 {
		t.Errorf("Upscales = %d, want 0", d.Upscales())
	}
}

func TestTDVFSExtremePolicyJumpsToLowestDirectly(t *testing.T) {
	// Pp at the aggressive extreme fills the whole array with the most
	// effective mode (Eq. 1 with np=1). One trigger must jump straight
	// from 2.4 to 1.0 GHz — not conclude it has nothing to do.
	n, act := newDVFSRig(t)
	d, err := NewTDVFS(DefaultTDVFSConfig(1), risingTemp(50, 0.1, 58), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 80, nil)
	if n.CPU.FreqGHz() != 1.0 {
		t.Errorf("Pp=1 scale-down landed at %v GHz, want direct 1.0", n.CPU.FreqGHz())
	}
	if !d.Engaged() {
		t.Error("daemon not Engaged after scaling")
	}
	if d.pol.CurrentMode() != 4 {
		t.Errorf("CurrentMode = %d, want 4", d.pol.CurrentMode())
	}
}

func TestTDVFSWalksDownToLowestMode(t *testing.T) {
	n, act := newDVFSRig(t)
	cfg := DefaultTDVFSConfig(50)
	cfg.CooldownRounds = 5
	d, err := NewTDVFS(cfg, constTemp(60), act)
	if err != nil {
		t.Fatal(err)
	}
	driveTDVFS(d, 800, nil)
	if n.CPU.FreqGHz() != 1.0 {
		t.Errorf("persistently hot: frequency %v GHz, want 1.0 (walked to bottom)", n.CPU.FreqGHz())
	}
	// Once at the bottom, no more transitions accumulate.
	before := n.CPU.Transitions()
	driveTDVFS(d, 100, nil)
	if n.CPU.Transitions() != before {
		t.Error("transitions kept accumulating at the lowest mode")
	}
}

// TestTDVFSEndToEndStabilizesHotNode reproduces the Figure 9 situation
// on one node: a weak fan (25% duty) cannot hold cpu-burn below the
// threshold, so tDVFS must step in and stabilize the temperature.
func TestTDVFSEndToEndStabilizesHotNode(t *testing.T) {
	n, act := newDVFSRig(t)
	n.Settle(0)
	// Pin the fan at 25% duty (weak cooling).
	port := NewSysfsFanPort(n.FS, n.Hwmon)
	if err := port.SetDutyPercent(25); err != nil {
		t.Fatal(err)
	}
	d, err := NewTDVFS(DefaultTDVFSConfig(50), SysfsTemp(n.FS, n.Hwmon.TempInput), act)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 2400; i++ { // 10 minutes
		n.Step(dt)
		d.OnStep(n.Elapsed())
	}
	if d.Downscales() == 0 {
		t.Fatal("tDVFS never triggered on a hot node")
	}
	if n.CPU.FreqGHz() >= 2.4 {
		t.Errorf("frequency still %v GHz", n.CPU.FreqGHz())
	}
	// The die must end close to (or below) the threshold region rather
	// than running away.
	if got := n.TrueDieC(); got > 56 {
		t.Errorf("final temperature %v °C, want stabilized near threshold", got)
	}
	if n.CPU.Transitions() > 8 {
		t.Errorf("tDVFS made %d transitions, want few (paper: 2-3)", n.CPU.Transitions())
	}
}
