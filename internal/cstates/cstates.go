// Package cstates models ACPI processor sleep states (C-states) — the
// third technique family the paper's §3.2.2 names for the thermal
// control array ("valid sleep states for ACPI-compatible system").
//
// A C-state bounds how deeply the core may sleep while it has nothing
// to run. Deeper states gate more of the clock tree and caches, cutting
// the power burned during the *idle* fraction of time; they cost
// nothing while the core is busy, which makes them the cheapest knob on
// bursty or communication-heavy workloads and a useless one under
// cpu-burn. That asymmetry is exactly the kind of per-technique
// effectiveness difference the unified control array expresses.
//
// The host interface mirrors Linux cpuidle's sysfs shape, reduced to
// one writable attribute: /sys/devices/system/cpu/cpuN/cpuidle/max_state.
package cstates

import (
	"fmt"

	"thermctl/internal/cpu"
	"thermctl/internal/hwmon"
)

// State describes one C-state.
type State struct {
	// IdleFactor is the idle-residual power multiplier the state
	// grants (1 = no gating).
	IdleFactor float64
}

// table is built once; Table is called from the actuation path, which
// must not allocate per call.
var table = []State{
	{IdleFactor: 1.00}, // C0
	{IdleFactor: 0.70}, // C1
	{IdleFactor: 0.45}, // C2
	{IdleFactor: 0.25}, // C3
}

// Table returns the modelled states, shallow to deep: C0 (no idle
// gating beyond the architectural halt), C1, C2, C3. The slice is
// shared — callers must treat it as read-only.
func Table() []State {
	return table
}

// Paths holds the virtual sysfs path of one CPU's cpuidle control.
type Paths struct {
	MaxState string
}

// Mount registers the cpuidle attribute for cpu<idx>, bound to the
// given core. Writing state index i applies state i's idle factor.
func Mount(fs *hwmon.FS, idx int, c *cpu.CPU) Paths {
	p := Paths{MaxState: fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpuidle/max_state", idx)}
	table := Table()
	current := 0
	fs.Register(p.MaxState, hwmon.IntFile{
		Max: int64(len(table) - 1),
		Get: func() int64 { return int64(current) },
		Set: func(v int64) error {
			current = int(v)
			c.SetIdleFactor(table[current].IdleFactor)
			return nil
		},
	})
	return p
}

// Actuator exposes the C-states to the unified controller: mode 0 is C0
// (least effective at reducing idle heat), the last mode the deepest
// state.
type Actuator struct {
	maxState *hwmon.Attr
}

// NewActuator returns an actuator driving the mounted cpuidle file,
// opened once here.
func NewActuator(fs *hwmon.FS, p Paths) *Actuator {
	return &Actuator{maxState: fs.Open(p.MaxState)}
}

// Name implements core.Actuator.
func (a *Actuator) Name() string { return "cstates" }

// NumModes implements core.Actuator.
func (a *Actuator) NumModes() int { return len(Table()) }

// Apply implements core.Actuator.
func (a *Actuator) Apply(m int) error {
	if m < 0 {
		m = 0
	}
	if n := len(Table()); m >= n {
		m = n - 1
	}
	return a.maxState.WriteInt(int64(m))
}
