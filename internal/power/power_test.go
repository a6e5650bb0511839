package power

import (
	"math"
	"testing"
	"time"
)

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{CPU: 60, Fan: 3, Base: 33}
	if b.Total() != 96 {
		t.Errorf("Total = %v, want 96", b.Total())
	}
}

func TestEmptyMeter(t *testing.T) {
	var m Meter
	if m.AverageW() != 0 || m.EnergyJ() != 0 || m.PeakW() != 0 {
		t.Error("empty meter should report zeros")
	}
}

func TestAverageAndEnergy(t *testing.T) {
	var m Meter
	m.Sample(Breakdown{CPU: 50, Base: 30}, 2*time.Second) // 80 W for 2 s
	m.Sample(Breakdown{CPU: 70, Base: 30}, 2*time.Second) // 100 W for 2 s
	if got := m.EnergyJ(); math.Abs(got-360) > 1e-9 {
		t.Errorf("energy = %v J, want 360", got)
	}
	if got := m.AverageW(); math.Abs(got-90) > 1e-9 {
		t.Errorf("average = %v W, want 90", got)
	}
}

func TestPeak(t *testing.T) {
	var m Meter
	m.Sample(Breakdown{CPU: 40}, time.Second)
	m.Sample(Breakdown{CPU: 90}, time.Second)
	m.Sample(Breakdown{CPU: 60}, time.Second)
	if m.PeakW() != 90 {
		t.Errorf("peak = %v, want 90", m.PeakW())
	}
}

func TestComponentEnergy(t *testing.T) {
	var m Meter
	m.Sample(Breakdown{CPU: 50, Fan: 5, Base: 30}, 10*time.Second)
	if m.EnergyJ() != 850 {
		t.Errorf("energy = %v, want 850", m.EnergyJ())
	}
	if m.FanEnergyJ() != 50 {
		t.Errorf("fan energy = %v, want 50", m.FanEnergyJ())
	}
}

func TestPowerDelayProductEqualsAvgTimesDelay(t *testing.T) {
	var m Meter
	m.Sample(Breakdown{CPU: 64.19, Base: 30}, 233*time.Second)
	// Table 1's power-delay product is average power times execution
	// time; it must equal the integrated energy.
	want := m.AverageW() * 233
	if got := m.EnergyJ(); math.Abs(got-want) > 1e-6 {
		t.Errorf("energy = %v, want PDP %v", got, want)
	}
}
