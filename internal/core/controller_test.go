package core

import (
	"errors"
	"testing"
	"time"

	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// fakeActuator records applied modes.
type fakeActuator struct {
	modes   int
	applied []int
	fail    bool
}

func (f *fakeActuator) Name() string  { return "fake" }
func (f *fakeActuator) NumModes() int { return f.modes }
func (f *fakeActuator) Apply(m int) error {
	if f.fail {
		return errors.New("apply failed")
	}
	f.applied = append(f.applied, m)
	return nil
}
func (f *fakeActuator) Current() (int, error) {
	if len(f.applied) == 0 {
		return 0, nil
	}
	return f.applied[len(f.applied)-1], nil
}

// scriptedTemp replays a temperature script, one value per read.
type scriptedTemp struct {
	vals []float64
	i    int
}

func (s *scriptedTemp) read() (float64, error) {
	if s.i < len(s.vals) {
		s.i++
	}
	return s.vals[minInt(s.i, len(s.vals))-1], nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// drive feeds the controller n sample periods.
func drive(c *Controller, n int) {
	period := 250 * time.Millisecond
	for i := 1; i <= n; i++ {
		c.Binding().OnStep(time.Duration(i) * period)
	}
}

func constTemp(v float64) TempReader {
	return func() (float64, error) { return v, nil }
}

func TestNewControllerValidation(t *testing.T) {
	fa := &fakeActuator{modes: 100}
	if _, err := NewController(DefaultConfig(50), nil, fa); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewController(DefaultConfig(50), constTemp(40)); err == nil {
		t.Error("no actuators accepted")
	}
	bad := DefaultConfig(50)
	bad.TmaxC = bad.TminC
	if _, err := NewController(bad, constTemp(40), fa); err == nil {
		t.Error("Tmax==Tmin accepted")
	}
	bad2 := DefaultConfig(50)
	bad2.SamplePeriod = 0
	if _, err := NewController(bad2, constTemp(40), fa); err == nil {
		t.Error("zero sample period accepted")
	}
	bad3 := DefaultConfig(0)
	if _, err := NewController(bad3, constTemp(40), fa); err == nil {
		t.Error("Pp=0 accepted")
	}
}

func TestAnchorOnFirstRound(t *testing.T) {
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(100), constTemp(60), fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 4) // one full round
	if len(fa.applied) != 1 {
		t.Fatalf("applied %v, want one anchor application", fa.applied)
	}
	// At 60 °C with Tmin 38, Tmax 82, N=100: index ≈ 2.25·22 ≈ 50.
	if idx := c.Policy().Index(0); idx < 45 || idx < 1 || idx > 55 {
		t.Errorf("anchor index = %d, want ≈50", idx)
	}
}

func TestRisingTempIncreasesMode(t *testing.T) {
	// +1 °C per sample: strongly rising.
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 40 + float64(i)
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 16) // 4 rounds
	if len(fa.applied) < 2 {
		t.Fatalf("controller never reacted: %v", fa.applied)
	}
	for i := 1; i < len(fa.applied); i++ {
		if fa.applied[i] < fa.applied[i-1] {
			t.Fatalf("mode sequence not non-decreasing under rising temp: %v", fa.applied)
		}
	}
	if last := fa.applied[len(fa.applied)-1]; last <= fa.applied[0] {
		t.Errorf("mode did not increase: %v", fa.applied)
	}
}

func TestFallingTempDecreasesMode(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 70 - float64(i)
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 24)
	if len(fa.applied) < 2 {
		t.Fatalf("controller never reacted: %v", fa.applied)
	}
	first, last := fa.applied[1], fa.applied[len(fa.applied)-1]
	if last >= first {
		t.Errorf("mode did not decrease under falling temp: %v", fa.applied)
	}
}

func TestJitterDoesNotMoveMode(t *testing.T) {
	// Per-sample oscillation ±2 °C with zero trend: half-sums cancel,
	// L2 averages equal — the controller must hold its mode. This is
	// the paper's Type III immunity (Figure 5 marker ①).
	vals := make([]float64, 100)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 48
		} else {
			vals[i] = 52
		}
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 100)
	if len(fa.applied) != 1 { // only the anchor
		t.Errorf("controller reacted to jitter: applied %v", fa.applied)
	}
}

func TestGradualDriftUsesLevelTwo(t *testing.T) {
	// +0.05 °C per sample: Δt_L1 per round = 0.2 °C → c·Δ ≈ 0.45 → 0
	// index change. Only the level-two horizon (ΔL2 ≈ 0.8 over 5
	// rounds → c·Δ ≈ 1.8) can catch it.
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = 42 + 0.05*float64(i)
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 400)
	if len(fa.applied) < 3 {
		t.Errorf("gradual drift not tracked: applied %v", fa.applied)
	}
	last := fa.applied[len(fa.applied)-1]
	if last < fa.applied[0]+5 {
		t.Errorf("mode rose only from %d to %d over a 20 °C drift", fa.applied[0], last)
	}
}

func TestMultipleActuatorsShareOneWindow(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 40 + float64(i)
	}
	s := &scriptedTemp{vals: vals}
	fan := &fakeActuator{modes: 100}
	dvfs := &fakeActuator{modes: 5}
	c, err := NewController(DefaultConfig(50), s.read,
		fan, dvfs)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 16)
	if len(fan.applied) == 0 || len(dvfs.applied) == 0 {
		t.Errorf("both actuators should move: fan=%v dvfs=%v", fan.applied, dvfs.applied)
	}
}

func TestSmallerPpAppliesMoreEffectiveModes(t *testing.T) {
	run := func(pp int) int {
		// Moderate ramp (40→55 °C) so neither policy's index saturates
		// at the top of the array.
		vals := make([]float64, 60)
		for i := range vals {
			vals[i] = 40 + 0.25*float64(i)
		}
		s := &scriptedTemp{vals: vals}
		fa := &fakeActuator{modes: 100}
		c, err := NewController(DefaultConfig(pp), s.read, fa)
		if err != nil {
			t.Fatal(err)
		}
		drive(c, 60)
		return fa.applied[len(fa.applied)-1]
	}
	aggressive := run(25)
	weak := run(75)
	if aggressive <= weak {
		t.Errorf("Pp=25 final mode %d not above Pp=75 final mode %d", aggressive, weak)
	}
}

func TestSensorErrorCounted(t *testing.T) {
	failing := func() (float64, error) { return 0, errors.New("i2c fault") }
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), failing, fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 7)
	if c.Binding().Errors() != 7 {
		t.Errorf("Errors = %d, want 7", c.Binding().Errors())
	}
	if len(fa.applied) != 0 {
		t.Error("actuator moved before the escalation threshold")
	}
	c.Binding().OnStep(8 * 250 * time.Millisecond)
	if !c.Binding().FailSafe() {
		t.Error("8 consecutive failed reads did not engage the fail-safe")
	}
	if len(fa.applied) != 1 || fa.applied[0] != fa.modes-1 {
		t.Errorf("escalation applied %v, want single most-effective mode %d", fa.applied, fa.modes-1)
	}
}

func TestActuatorErrorCounted(t *testing.T) {
	fa := &fakeActuator{modes: 100, fail: true}
	c, err := NewController(DefaultConfig(50), constTemp(60), fa)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 4)
	if c.Binding().Errors() == 0 {
		t.Error("failed Apply not counted")
	}
}

func TestSamplingHonorsPeriod(t *testing.T) {
	reads := 0
	read := func() (float64, error) { reads++; return 45, nil }
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), read, fa)
	if err != nil {
		t.Fatal(err)
	}
	// Step every 50 ms for 2 s: 40 calls, but period is 250 ms → 8 reads.
	for i := 1; i <= 40; i++ {
		c.Binding().OnStep(time.Duration(i) * 50 * time.Millisecond)
	}
	if reads != 8 {
		t.Errorf("reads = %d, want 8 (4 Hz sampling)", reads)
	}
}

// TestEndToEndFanControlOnNode closes the loop on a real simulated node:
// cpu-burn heats the die, the unified controller spins the fan up, and
// the temperature stabilizes well below what the same load produces at
// the initial low duty.
func TestEndToEndFanControlOnNode(t *testing.T) {
	n, err := node.New(node.DefaultConfig("e2e", 5))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	ctl, err := NewController(
		DefaultConfig(50),
		SysfsTemp(n.FS, n.Hwmon.TempInput),
		NewFanActuator(NewSysfsFanPort(n.FS, n.Hwmon), 100),
	)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 1200; i++ { // 5 minutes
		n.Step(dt)
		ctl.Binding().OnStep(n.Elapsed())
	}
	finalTemp := n.TrueDieC()
	finalDuty := n.Fan.Duty()
	if finalDuty < 20 {
		t.Errorf("controller left the fan at %v%% under cpu-burn", finalDuty)
	}
	// Without control the same load at 10% duty settles near 62 °C;
	// the controller should do meaningfully better.
	if finalTemp > 58 {
		t.Errorf("controlled temperature %v °C, want < 58", finalTemp)
	}
	if ctl.Binding().Errors() != 0 {
		t.Errorf("controller errors: %d", ctl.Binding().Errors())
	}
}

func BenchmarkControllerRound(b *testing.B) {
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), constTemp(50), fa)
	if err != nil {
		b.Fatal(err)
	}
	period := 250 * time.Millisecond
	for i := 1; i <= b.N; i++ {
		c.Binding().OnStep(time.Duration(i) * period)
	}
}
