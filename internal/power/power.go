// Package power models node-level power accounting: the simulated
// equivalent of the Watts up? Pro ES wall meter used in the paper.
//
// System power is the sum of a constant platform base (PSU overhead,
// motherboard, DRAM, disk), the CPU's electrical power, and the fan's
// electrical power. The Meter integrates samples into energy and exposes
// the summary statistics the paper's Table 1 reports: average power
// (the power-delay product is average power times execution time).
package power

import "time"

// Breakdown is one instantaneous power sample, in watts.
type Breakdown struct {
	CPU  float64
	Fan  float64
	Base float64
}

// Total returns the node's wall power.
func (b Breakdown) Total() float64 { return b.CPU + b.Fan + b.Base }

// DefaultBaseW is the constant platform power of one node (PSU loss,
// board, memory, disk — 2005-era boards idled high), calibrated so a
// node running BT averages ≈100 W as in the paper's Table 1.
const DefaultBaseW = 45.0

// Meter integrates power over simulated time.
type Meter struct {
	energyJ   float64
	elapsed   time.Duration
	peakW     float64
	energyFan float64
}

// Sample records that the node drew b for the duration dt.
func (m *Meter) Sample(b Breakdown, dt time.Duration) {
	s := dt.Seconds()
	w := b.Total()
	m.energyJ += w * s
	m.energyFan += b.Fan * s
	m.elapsed += dt
	if w > m.peakW {
		m.peakW = w
	}
}

// EnergyJ returns total integrated energy in joules.
func (m *Meter) EnergyJ() float64 { return m.energyJ }

// FanEnergyJ returns the fan component of the integrated energy.
func (m *Meter) FanEnergyJ() float64 { return m.energyFan }

// AverageW returns mean power over the metered interval, or 0 if nothing
// was sampled.
func (m *Meter) AverageW() float64 {
	s := m.elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return m.energyJ / s
}

// PeakW returns the highest sampled total power.
func (m *Meter) PeakW() float64 { return m.peakW }
