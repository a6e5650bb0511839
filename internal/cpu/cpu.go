// Package cpu models a DVFS-capable processor: its P-state (frequency/
// voltage) table, its instantaneous utilization, the electrical power it
// dissipates, and the computational work it retires.
//
// The power model has the two components that matter for thermal control:
//
//   - dynamic power  Pdyn = Cdyn · V² · f · u   (switching activity), the
//     cubic-in-frequency term the paper's in-band knob exploits, and
//   - leakage power  Pleak = L0 · V · (1 + kT·(T − Tref))  (subthreshold
//     leakage), which grows with die temperature and is why a hotter chip
//     at the same frequency draws measurably more wall power — visible in
//     the paper's Table 1, where CPUSPEED at a weaker fan setting draws
//     *more* average power than at a stronger one.
//
// The default table matches the paper's AMD Athlon64 4000+: five P-states
// at 2.4, 2.2, 2.0, 1.8 and 1.0 GHz.
package cpu

import (
	"fmt"
	"time"
)

// PState is one DVFS operating point.
type PState struct {
	// FreqGHz is the core clock in GHz.
	FreqGHz float64
	// Voltage is the core supply in volts.
	Voltage float64
}

// Athlon64Table returns the five P-states of the paper's AMD Athlon64
// 4000+ in descending frequency order, with the voltage schedule of that
// part family.
func Athlon64Table() []PState {
	return []PState{
		{FreqGHz: 2.4, Voltage: 1.40},
		{FreqGHz: 2.2, Voltage: 1.35},
		{FreqGHz: 2.0, Voltage: 1.30},
		{FreqGHz: 1.8, Voltage: 1.25},
		{FreqGHz: 1.0, Voltage: 1.10},
	}
}

// PowerModel holds the electrical coefficients of the processor.
type PowerModel struct {
	// CdynWPerV2GHz is the effective switching capacitance in W/(V²·GHz).
	CdynWPerV2GHz float64
	// UncoreW is frequency-independent power of the always-on uncore.
	UncoreW float64
	// Leak0W is leakage at reference voltage and temperature, in watts
	// per volt of supply.
	Leak0WPerV float64
	// LeakTempCoeff is the per-°C fractional growth of leakage.
	LeakTempCoeff float64
	// LeakTrefC is the reference temperature for leakage, °C.
	LeakTrefC float64
	// IdleActivity is the residual switching activity at 0% utilization
	// (clock tree, OS ticks), as a fraction of full activity.
	IdleActivity float64
}

// DefaultPowerModel returns coefficients calibrated so that an Athlon64
// 4000+ running a compute-bound workload at 2.4 GHz dissipates ≈60 W and
// idles near 15 W — the operating points implied by the paper's measured
// node power of 95–101 W.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		CdynWPerV2GHz: 9.5,
		UncoreW:       2.0,
		Leak0WPerV:    6.5,
		LeakTempCoeff: 0.035,
		LeakTrefC:     40,
		IdleActivity:  0.06,
	}
}

// Config assembles a processor description.
type Config struct {
	// Table is the P-state list in descending frequency order.
	Table []PState
	// Power is the electrical model.
	Power PowerModel
	// TransitionLatency is the cost of a P-state switch; during it the
	// core retires no work. Athlon64 PowerNow! transitions are ~100 µs,
	// negligible at our step size, but tracked for fidelity.
	TransitionLatency time.Duration
}

// DefaultConfig returns the Athlon64 4000+ description.
func DefaultConfig() Config {
	return Config{
		Table:             Athlon64Table(),
		Power:             DefaultPowerModel(),
		TransitionLatency: 100 * time.Microsecond,
	}
}

// CPU is one processor instance. It is owned by the stepping
// goroutine; not safe for concurrent use. The control daemons (through
// the sysfs mounts) and the BMC's power sensor reach it from that
// goroutine.
type CPU struct {
	cfg         Config
	pstate      int     // index into cfg.Table
	util        float64 // [0,1], set by the workload each step
	throttle    float64 // delivered clock fraction, 1 = unthrottled
	idleFactor  float64 // idle-residual power multiplier set by the C-state governor
	transitions uint64
	stallLeft   time.Duration // remaining transition stall
	workGC      float64       // total retired work, in giga-cycles
}

// New returns a CPU in its highest-frequency P-state with zero
// utilization. It panics if the table is empty or frequencies are not in
// strictly descending order — the thermal control array relies on mode
// ordering.
func New(cfg Config) *CPU {
	if len(cfg.Table) == 0 {
		panic("cpu: empty P-state table")
	}
	for i := 1; i < len(cfg.Table); i++ {
		if cfg.Table[i].FreqGHz >= cfg.Table[i-1].FreqGHz {
			panic(fmt.Sprintf("cpu: P-state table not in descending frequency order at index %d", i))
		}
	}
	return &CPU{cfg: cfg, throttle: 1, idleFactor: 1}
}

// SetIdleFactor scales the idle-residual switching activity, modelling
// processor sleep states (C-states): a deeper idle state gates more of
// the clock tree while the core waits, shrinking the power burned
// during the un-utilized fraction of time. 1 = shallow halt only.
// Clamped to [0, 1].
func (c *CPU) SetIdleFactor(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	c.idleFactor = f
}

// IdleFactor returns the current idle-residual multiplier.
//
//thermlint:allow deadcode -- oracle: the C-state tests compare the gated idle-power factor
func (c *CPU) IdleFactor() float64 {
	return c.idleFactor
}

// SetThrottle sets ACPI-style clock modulation: the fraction of clock
// cycles actually delivered to the core (T-states gate the clock with a
// duty cycle). Clamped to [1/16, 1]. Unlike DVFS it does not lower the
// voltage, so it cuts dynamic power only linearly — the paper's point
// that different techniques differ in effectiveness, which the control
// array unifies.
func (c *CPU) SetThrottle(frac float64) {
	if frac < 1.0/16 {
		frac = 1.0 / 16
	}
	if frac > 1 {
		frac = 1
	}
	c.throttle = frac
}

// Throttle returns the delivered clock fraction (1 = unthrottled).
func (c *CPU) Throttle() float64 {
	return c.throttle
}

// Table returns the P-state table (shared; callers must not modify).
func (c *CPU) Table() []PState { return c.cfg.Table }

// PState returns the current P-state index (0 = fastest).
func (c *CPU) PState() int {
	return c.pstate
}

// SetPState switches to P-state index i. Out-of-range values are clamped.
// A real switch (to a different state) stalls the core for the transition
// latency and increments the transition counter.
func (c *CPU) SetPState(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(c.cfg.Table) {
		i = len(c.cfg.Table) - 1
	}
	if i == c.pstate {
		return
	}
	c.pstate = i
	c.transitions++
	c.stallLeft += c.cfg.TransitionLatency
}

// SetFreqGHz switches to the P-state with exactly the given frequency.
// It reports whether such a state exists.
func (c *CPU) SetFreqGHz(f float64) bool {
	for i, p := range c.cfg.Table {
		if p.FreqGHz == f {
			c.SetPState(i)
			return true
		}
	}
	return false
}

// FreqGHz returns the current core frequency.
func (c *CPU) FreqGHz() float64 {
	return c.cfg.Table[c.pstate].FreqGHz
}

// Transitions returns the number of P-state changes so far. The paper
// reports this for reliability: each transition stresses the voltage
// regulator, and tDVFS's headline win in Table 1 is a ~98% reduction.
func (c *CPU) Transitions() uint64 {
	return c.transitions
}

// SetUtilization sets the demanded utilization for the next Step,
// clamped to [0, 1].
func (c *CPU) SetUtilization(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	c.util = u
}

// Utilization returns the utilization used by the last power/work
// computation.
//
//thermlint:allow deadcode -- oracle: the cpu tests and the shared-demand bit-identity test compare it
func (c *CPU) Utilization() float64 {
	return c.util
}

// Power returns the instantaneous electrical power in watts at the given
// die temperature.
func (c *CPU) Power(dieTempC float64) float64 {
	p := c.cfg.Table[c.pstate]
	m := c.cfg.Power
	// Activity = busy fraction at full switching plus the idle fraction
	// at the residual (clock tree, ticks), the latter scaled by the
	// C-state governor's idle factor.
	activity := c.util + m.IdleActivity*c.idleFactor*(1-c.util)
	dyn := m.CdynWPerV2GHz * p.Voltage * p.Voltage * p.FreqGHz * activity * c.throttle
	leak := m.Leak0WPerV * p.Voltage * (1 + m.LeakTempCoeff*(dieTempC-m.LeakTrefC))
	if leak < 0 {
		leak = 0
	}
	return m.UncoreW + dyn + leak
}

// Step advances the core by dt, retiring work at freq·util (minus any
// transition stall), and returns the work retired in giga-cycles.
func (c *CPU) Step(dt time.Duration) float64 {
	effective := dt
	if c.stallLeft > 0 {
		if c.stallLeft >= dt {
			c.stallLeft -= dt
			effective = 0
		} else {
			effective = dt - c.stallLeft
			c.stallLeft = 0
		}
	}
	w := c.cfg.Table[c.pstate].FreqGHz * c.throttle * c.util * effective.Seconds()
	c.workGC += w
	return w
}

// Work returns the total retired work in giga-cycles.
//
//thermlint:allow deadcode -- oracle: the cpu, shard and three-technique tests check the work retired
func (c *CPU) Work() float64 {
	return c.workGC
}
