package cpu

import (
	"math"
	"testing"
	"time"
)

func TestNewValidatesTable(t *testing.T) {
	if err := shouldPanic(func() { New(Config{}) }); err != nil {
		t.Error("empty table:", err)
	}
	bad := DefaultConfig()
	bad.Table = []PState{{2.0, 1.3}, {2.4, 1.4}}
	if err := shouldPanic(func() { New(bad) }); err != nil {
		t.Error("ascending table:", err)
	}
}

func shouldPanic(f func()) error {
	defer func() { recover() }()
	f()
	return errNoPanic
}

var errNoPanic = errorString("expected panic")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestDefaultTableMatchesPaper(t *testing.T) {
	c := New(DefaultConfig())
	want := []float64{2.4, 2.2, 2.0, 1.8, 1.0}
	tab := c.Table()
	if len(tab) != len(want) {
		t.Fatalf("table has %d states, want %d", len(tab), len(want))
	}
	for i, w := range want {
		if tab[i].FreqGHz != w {
			t.Errorf("state %d = %v GHz, want %v", i, tab[i].FreqGHz, w)
		}
	}
	if c.FreqGHz() != 2.4 {
		t.Errorf("initial frequency = %v, want 2.4 (fastest)", c.FreqGHz())
	}
}

func TestSetPStateClampsAndCounts(t *testing.T) {
	c := New(DefaultConfig())
	c.SetPState(2)
	if c.PState() != 2 || c.Transitions() != 1 {
		t.Errorf("state=%d trans=%d, want 2,1", c.PState(), c.Transitions())
	}
	c.SetPState(2) // same state: no transition
	if c.Transitions() != 1 {
		t.Errorf("redundant SetPState counted: trans=%d", c.Transitions())
	}
	c.SetPState(99)
	if c.PState() != 4 {
		t.Errorf("overflow clamp: state=%d, want 4", c.PState())
	}
	c.SetPState(-3)
	if c.PState() != 0 {
		t.Errorf("underflow clamp: state=%d, want 0", c.PState())
	}
	if c.Transitions() != 3 {
		t.Errorf("trans=%d, want 3", c.Transitions())
	}
}

func TestSetFreqGHz(t *testing.T) {
	c := New(DefaultConfig())
	if !c.SetFreqGHz(1.8) {
		t.Fatal("SetFreqGHz(1.8) not found")
	}
	if c.FreqGHz() != 1.8 {
		t.Errorf("freq = %v, want 1.8", c.FreqGHz())
	}
	if c.SetFreqGHz(3.0) {
		t.Error("SetFreqGHz(3.0) found a nonexistent state")
	}
}

func TestPowerDecreasesWithFrequency(t *testing.T) {
	c := New(DefaultConfig())
	c.SetUtilization(1)
	var prev = math.Inf(1)
	for i := range c.Table() {
		c.SetPState(i)
		p := c.Power(50)
		if p >= prev {
			t.Errorf("power at state %d (%v) >= state %d (%v)", i, p, i-1, prev)
		}
		prev = p
	}
}

func TestPowerIncreasesWithUtilization(t *testing.T) {
	c := New(DefaultConfig())
	c.SetUtilization(0)
	idle := c.Power(45)
	c.SetUtilization(1)
	busy := c.Power(45)
	if busy <= idle {
		t.Fatalf("busy power %v <= idle power %v", busy, idle)
	}
}

func TestLeakageGrowsWithTemperature(t *testing.T) {
	c := New(DefaultConfig())
	c.SetUtilization(1)
	cold := c.Power(40)
	hot := c.Power(70)
	if hot <= cold {
		t.Errorf("power at 70°C (%v) not above power at 40°C (%v)", hot, cold)
	}
	// The difference should be leakage-sized (a few watts), not huge.
	if d := hot - cold; d < 1 || d > 10 {
		t.Errorf("70°C-40°C leakage delta = %v W, want 1..10 W", d)
	}
}

func TestCalibrationOperatingPoints(t *testing.T) {
	// The paper's node draws ~100 W loaded with a ~33 W platform base,
	// implying a CPU package around 55-65 W busy and 12-18 W idle.
	c := New(DefaultConfig())
	c.SetUtilization(1)
	if p := c.Power(52); p < 55 || p > 68 {
		t.Errorf("busy power at 2.4 GHz = %v W, want 55..68", p)
	}
	c.SetUtilization(0)
	if p := c.Power(38); p < 10 || p > 20 {
		t.Errorf("idle power = %v W, want 10..20", p)
	}
}

func TestStepRetiresWork(t *testing.T) {
	c := New(DefaultConfig())
	c.SetUtilization(1)
	w := c.Step(time.Second)
	if math.Abs(w-2.4) > 1e-9 {
		t.Errorf("work in 1s at 2.4 GHz full util = %v Gcycles, want 2.4", w)
	}
	c.SetUtilization(0.5)
	w = c.Step(time.Second)
	if math.Abs(w-1.2) > 1e-9 {
		t.Errorf("work at 50%% util = %v, want 1.2", w)
	}
	if math.Abs(c.Work()-3.6) > 1e-9 {
		t.Errorf("cumulative work = %v, want 3.6", c.Work())
	}
}

func TestTransitionStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TransitionLatency = 100 * time.Millisecond
	c := New(cfg)
	c.SetUtilization(1)
	c.SetPState(1) // 2.2 GHz with a 100 ms stall
	w := c.Step(time.Second)
	want := 2.2 * 0.9 // 900 ms of useful work
	if math.Abs(w-want) > 1e-9 {
		t.Errorf("work after transition = %v, want %v", w, want)
	}
}

func TestStallSpansSteps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TransitionLatency = 300 * time.Millisecond
	c := New(cfg)
	c.SetUtilization(1)
	c.SetPState(1)
	if w := c.Step(200 * time.Millisecond); w != 0 {
		t.Errorf("work during stall = %v, want 0", w)
	}
	w := c.Step(200 * time.Millisecond)
	want := 2.2 * 0.1
	if math.Abs(w-want) > 1e-9 {
		t.Errorf("work after partial stall = %v, want %v", w, want)
	}
}

func TestUtilizationClamped(t *testing.T) {
	c := New(DefaultConfig())
	c.SetUtilization(2)
	if c.Utilization() != 1 {
		t.Errorf("util = %v, want clamp to 1", c.Utilization())
	}
	c.SetUtilization(-1)
	if c.Utilization() != 0 {
		t.Errorf("util = %v, want clamp to 0", c.Utilization())
	}
}

func BenchmarkPower(b *testing.B) {
	c := New(DefaultConfig())
	c.SetUtilization(0.8)
	for i := 0; i < b.N; i++ {
		c.Power(50)
	}
}

// TestActuationInterleavedWithPower interleaves the control loop's
// P-state, throttle and idle-factor writes with the power and frequency
// reads the BMC's sensor makes between steps; every read must see a
// valid state.
func TestActuationInterleavedWithPower(t *testing.T) {
	c := New(DefaultConfig())
	c.SetUtilization(0.8)
	for i := 0; i < 5000; i++ {
		c.SetPState(i % len(c.Table()))
		c.SetThrottle(0.5 + 0.5*float64(i%2))
		c.SetIdleFactor(float64(i%3) / 2)
		c.Step(time.Millisecond)
		if p := c.Power(50); p <= 0 || math.IsNaN(p) {
			t.Fatalf("Power = %v mid-actuation", p)
		}
		if f := c.FreqGHz(); f != c.Table()[i%len(c.Table())].FreqGHz {
			t.Fatalf("FreqGHz = %v after SetPState(%d)", f, i%len(c.Table()))
		}
	}
	if c.Transitions() == 0 {
		t.Error("no transitions recorded")
	}
}
