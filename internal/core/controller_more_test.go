package core

import (
	"math"
	"testing"
	"time"

	"thermctl/internal/core/window"
)

// Focused unit tests for the controller's anti-windup lead band and
// index arithmetic, using scripted temperatures for exact control.

func TestAntiWindupBoundsLead(t *testing.T) {
	// A violent sustained rise: without the lead band the index would
	// integrate far past the anchor. With MaxLeadC=7 °C and
	// c=(N-1)/(Tmax-Tmin)=99/44≈2.25, the index may exceed the anchor
	// center by at most ~16 cells.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 40 + 0.8*float64(i) // +3.2 °C per round
		if vals[i] > 75 {
			vals[i] = 75
		}
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(100), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	coef := 99.0 / 44.0
	period := 250 * time.Millisecond
	for i := 1; i <= 200; i++ {
		c.Binding().OnStep(time.Duration(i) * period)
		avg := c.Binding().Window().Avg()
		if math.IsNaN(avg) {
			continue
		}
		center := coef * (avg - 38)
		if lead := float64(c.Policy().Index(0)) - center; lead > coef*7+1 {
			t.Fatalf("index %d leads anchor %0.f by %.1f cells (> band)", c.Policy().Index(0), center, lead)
		}
	}
}

func TestReactivityFloorPullsIndexUp(t *testing.T) {
	// Start the controller on a cold machine, then jump the scripted
	// temperature: even if per-round deltas alias to zero afterwards
	// (flat at the new level), the floor center-lead must drag the
	// index up to within the band of the hot anchor.
	vals := make([]float64, 120)
	for i := range vals {
		if i < 8 {
			vals[i] = 40
		} else {
			vals[i] = 68 // hot and flat
		}
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(100), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	period := 250 * time.Millisecond
	for i := 1; i <= 120; i++ {
		c.Binding().OnStep(time.Duration(i) * period)
	}
	coef := 99.0 / 44.0
	center := coef * (68 - 38)
	if float64(c.Policy().Index(0)) < center-coef*7-1 {
		t.Errorf("index %d lags the hot anchor %.0f beyond the band", c.Policy().Index(0), center)
	}
}

func TestCustomWindowConfigHonored(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.Window = window.Config{L1Size: 8, L2Size: 3}
	reads := 0
	read := func() (float64, error) { reads++; return 45, nil }
	fa := &fakeActuator{modes: 100}
	c, err := NewController(cfg, read, fa)
	if err != nil {
		t.Fatal(err)
	}
	period := 250 * time.Millisecond
	win := c.Binding().Window()
	for i := 1; i <= 8; i++ {
		// 8-entry level-one window: the first round completes on the
		// eighth sample.
		if i == 8 && !math.IsNaN(win.Avg()) {
			t.Fatalf("a round completed after %d samples of an 8-entry window", i-1)
		}
		c.Binding().OnStep(time.Duration(i) * period)
	}
	if win.Avg() != 45 {
		t.Errorf("round average = %v after 8 samples, want 45", win.Avg())
	}
}

func TestMovesCountsPerActuator(t *testing.T) {
	vals := make([]float64, 48)
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
	drive(c, 48)
	if c.Moves(0) != uint64(len(fan.applied)) {
		t.Errorf("fan Moves %d vs applied %d", c.Moves(0), len(fan.applied))
	}
	if c.Moves(1) != uint64(len(dvfs.applied)) {
		t.Errorf("dvfs Moves %d vs applied %d", c.Moves(1), len(dvfs.applied))
	}
}

func TestHoldFloorStillAllowsIncreases(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 45 + 0.5*float64(i)
	}
	s := &scriptedTemp{vals: vals}
	fa := &fakeActuator{modes: 100}
	c, err := NewController(DefaultConfig(50), s.read, fa)
	if err != nil {
		t.Fatal(err)
	}
	c.Policy().SetHoldFloor(true)
	drive(c, 60)
	if len(fa.applied) < 2 {
		t.Fatalf("hold-floor blocked increases too: %v", fa.applied)
	}
	last := fa.applied[len(fa.applied)-1]
	if last <= fa.applied[0] {
		t.Errorf("mode did not rise under hold-floor with rising temp: %v", fa.applied)
	}
}
