// Package node assembles one simulated server: a DVFS-capable CPU, its
// RC thermal path, a PWM fan behind an ADT7467 on an i2c bus, an on-die
// thermal sensor exported through a virtual sysfs (the in-band path), a
// BMC answering IPMI commands (the out-of-band path), and a wall-power
// meter.
//
// The node is stepped with a fixed dt by its owner (a cluster or a
// standalone clock loop). Each step: the workload sets utilization, the
// CPU retires work and dissipates power, the fan rotor and the thermal
// network integrate, the ADT7467 runs its monitoring cycle, and the
// power meter accumulates. Controllers never touch these structs
// directly — they act through the hwmon/cpufreq files or the BMC, like
// their real counterparts.
package node

import (
	"fmt"
	"time"

	"thermctl/internal/acpi"
	"thermctl/internal/adt7467"
	"thermctl/internal/cpu"
	"thermctl/internal/cpufreq"
	"thermctl/internal/cstates"
	"thermctl/internal/fan"
	"thermctl/internal/faults"
	"thermctl/internal/hwmon"
	"thermctl/internal/i2c"
	"thermctl/internal/ipmi"
	"thermctl/internal/power"
	"thermctl/internal/rng"
	"thermctl/internal/sensor"
	"thermctl/internal/thermal"
	"thermctl/internal/workload"
)

// BMC sensor numbers of the standard repository.
const (
	SensorCPUTemp  = 1
	SensorFanRPM   = 2
	SensorSystemW  = 3
	SensorAmbientC = 4
)

// Config describes one node.
type Config struct {
	// Name appears in traces and reports.
	Name string
	// Seed drives this node's noise streams.
	Seed uint64
	// CPU, Fan, Thermal, Sensor configure the devices; zero values are
	// replaced by the package defaults.
	CPU     cpu.Config
	Fan     fan.Config
	Thermal thermal.Config
	Sensor  sensor.Config
	// BaseW is the constant platform power.
	BaseW float64
	// InitialDuty is the fan duty at boot, percent.
	InitialDuty float64
	// AmbientOffsetC shifts this node's inlet temperature, modelling
	// position-dependent rack hot spots.
	AmbientOffsetC float64
	// ProtectC is the hardware thermal-protection trip point (the
	// PROCHOT/thermal-throttle temperature): when the die reaches it,
	// the hardware forces the lowest P-state until the die falls
	// ProtectHystC below the trip point. This is the "thermal
	// emergency" whose slowdowns the paper's controllers exist to
	// prevent. Zero selects the default 70 degC.
	ProtectC float64
	// ProtectHystC is the release hysteresis (default 5 degC).
	ProtectHystC float64
	// Block, when non-nil, is caller-provided storage for the node and
	// every device its step touches; nil lets New allocate one. The
	// cluster passes an element of one contiguous []Block covering all
	// its nodes, so the step sweep walks dense memory. New overwrites
	// the block.
	Block *Block
}

// DefaultConfig returns the paper's node: Athlon64 4000+, 4300 RPM fan,
// calibrated thermal network, lm-sensors-grade sensor.
func DefaultConfig(name string, seed uint64) Config {
	return Config{
		Name:         name,
		Seed:         seed,
		CPU:          cpu.DefaultConfig(),
		Fan:          fan.Default(),
		Thermal:      thermal.Default(),
		Sensor:       sensor.Default(),
		BaseW:        power.DefaultBaseW,
		InitialDuty:  10,
		ProtectC:     70,
		ProtectHystC: 5,
	}
}

// Block holds by value one node and every device struct its Step
// touches: the CPU, fan, RC network, sensor, ADT7467 chip and its
// register map, cpufreq scaler and power meter. A node's hot state then
// sits in one contiguous allocation, apart from the cold sysfs, bus and
// BMC objects built around it; a cluster lays its blocks out as one
// slice, in step order. The fields are reached only through the Node's
// pointers. A Block must not be copied once New has built a node in it.
type Block struct {
	node    Node
	cpu     cpu.CPU
	fan     fan.Fan
	thermal thermal.Network
	sensor  sensor.Sensor
	chip    adt7467.Chip
	scaler  cpufreq.SimScaler
	meter   power.Meter
	regs    i2c.RegisterFile
}

// Node is one assembled server. It and every device it wires are owned
// by the goroutine that steps it; not safe for concurrent use. A foreign
// goroutine (an IPMI server connection) reaches the node only under a
// lock that the stepping goroutine also holds around Step.
type Node struct {
	// Name identifies the node.
	Name string

	// Physical models.
	CPU     *cpu.CPU
	Fan     *fan.Fan
	Thermal *thermal.Network
	Sensor  *sensor.Sensor

	// Bus and devices.
	Bus  *i2c.Bus
	Chip *adt7467.Chip
	//thermlint:allow deadcode -- oracle: the node tests and the auto-cluster golden read the ADT7467 through its driver
	Drv *adt7467.Driver

	// In-band interfaces.
	FS      *hwmon.FS
	Hwmon   hwmon.Chip
	Scaler  *cpufreq.SimScaler
	Cpufreq cpufreq.Paths

	// ACPI throttling control (a third unified technique).
	//
	//thermlint:allow deadcode -- the throttling paths the three-technique test binds (see acpi.NewActuator)
	ACPI acpi.Paths

	// CStates is the cpuidle (sleep state) control.
	CStates cstates.Paths

	// Out-of-band interface.
	BMC *ipmi.BMC

	// Accounting.
	Meter *power.Meter

	gen     workload.Generator
	util    float64
	elapsed time.Duration
	baseW   float64

	// jiffy accounting backing the /proc/stat file (USER_HZ = 100).
	busyJiffies float64
	idleJiffies float64
	// steps counts Step calls; it keys the sensor's conversion ticks.
	steps uint64

	// hardware thermal protection state.
	protectC      float64
	protectHystC  float64
	protected     bool
	emergencies   uint64
	protectedTime time.Duration
}

// New builds a node from cfg.
func New(cfg Config) (*Node, error) {
	if cfg.CPU.Table == nil {
		cfg.CPU = cpu.DefaultConfig()
	}
	if cfg.Fan.MaxRPM == 0 {
		cfg.Fan = fan.Default()
	}
	if cfg.Thermal.CdieJPerK == 0 {
		cfg.Thermal = thermal.Default()
	}
	if cfg.BaseW == 0 {
		cfg.BaseW = power.DefaultBaseW
	}
	cfg.Thermal.AmbientC += cfg.AmbientOffsetC

	seedSrc := rng.New(cfg.Seed)
	b := cfg.Block
	if b == nil {
		b = new(Block)
	}
	// None of these constructors keeps a pointer to its result, so
	// each copies into the block before any pointer to it escapes.
	*b = Block{
		cpu:     *cpu.New(cfg.CPU),
		fan:     *fan.New(cfg.Fan, cfg.InitialDuty),
		thermal: *thermal.New(cfg.Thermal),
	}
	n := &b.node
	n.Name = cfg.Name
	n.CPU = &b.cpu
	n.Fan = &b.fan
	n.Thermal = &b.thermal
	n.Meter = &b.meter
	b.sensor = *sensor.New(cfg.Sensor, sensor.SourceFunc(n.Thermal.DieC), seedSrc.Split())
	n.Sensor = &b.sensor
	// Noise is keyed to the step counter: every consumer of the sensor
	// (hwmon, ADT7467, BMC, probes) sees the same conversion within a
	// step, so adding observers never perturbs a run.
	n.Sensor.SetTickSource(func() uint64 { return n.steps })

	// i2c bus with the fan controller.
	n.Bus = i2c.NewBus()
	// The chip's register hooks close over it: it is built in place.
	adt7467.NewChipAt(&b.chip, &b.regs, n.Sensor, n.Fan)
	n.Chip = &b.chip
	if err := n.Bus.Attach(adt7467.DefaultAddr, n.Chip); err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.Name, err)
	}
	drv, err := adt7467.NewDriver(n.Bus, adt7467.DefaultAddr)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.Name, err)
	}
	n.Drv = drv

	// In-band: virtual sysfs with hwmon and cpufreq attribute files.
	n.FS = hwmon.NewFS()
	n.Hwmon = hwmon.MountADT7467(n.FS, 0, drv, n.Sensor, n.Fan)
	b.scaler = *cpufreq.NewSimScaler(n.CPU)
	n.Scaler = &b.scaler
	n.Cpufreq = cpufreq.Mount(n.FS, 0, n.Scaler)
	n.ACPI = acpi.Mount(n.FS, 0, n.CPU)
	n.CStates = cstates.Mount(n.FS, 0, n.CPU)

	// Out-of-band: BMC with its own driver handle on the shared bus.
	bmcDrv, err := adt7467.NewDriver(n.Bus, adt7467.DefaultAddr)
	if err != nil {
		return nil, fmt.Errorf("node %s: bmc: %w", cfg.Name, err)
	}
	n.BMC = ipmi.NewBMC(bmcDrv)
	sensors := []ipmi.SensorRecord{
		{Number: SensorCPUTemp, Name: "CPU Temp", Unit: "degrees C", Read: n.Sensor.Read},
		{Number: SensorFanRPM, Name: "CPU Fan", Unit: "RPM", Read: n.Fan.TachRPM},
		{Number: SensorSystemW, Name: "System Power", Unit: "Watts", Read: func() float64 { return n.breakdown().Total() }},
		{Number: SensorAmbientC, Name: "Inlet Temp", Unit: "degrees C", Read: n.Thermal.AmbientC},
	}
	for _, rec := range sensors {
		if err := n.BMC.AddSensor(rec); err != nil {
			return nil, fmt.Errorf("node %s: %w", cfg.Name, err)
		}
	}

	// /proc/stat, for utilization-driven daemons (CPUSPEED). Format is
	// the kernel's: "cpu user nice system idle ..." in USER_HZ jiffies.
	n.FS.Register("/proc/stat", hwmon.FuncFile{
		ReadFn: func() (string, error) {
			busy := uint64(n.busyJiffies)
			idle := uint64(n.idleJiffies)
			return fmt.Sprintf("cpu  %d 0 0 %d 0 0 0\n", busy, idle), nil
		},
	})

	n.baseW = cfg.BaseW
	if cfg.ProtectC == 0 {
		cfg.ProtectC = 70
	}
	if cfg.ProtectHystC == 0 {
		cfg.ProtectHystC = 5
	}
	n.protectC = cfg.ProtectC
	n.protectHystC = cfg.ProtectHystC
	return n, nil
}

// AttachFaults subscribes the node's device models to a fault plane
// injector: the sensor (stuck/dropout/spike), the i2c bus (transient
// faults and NAK bursts, drawn from src — give the bus its own stream)
// and the fan (bearing degradation and stall). Wiring time only, before
// the first Step.
func (n *Node) AttachFaults(inj *faults.Injector, src *rng.Source) {
	n.Sensor.AttachInjector(inj)
	n.Bus.AttachInjector(inj, src)
	n.Fan.AttachInjector(inj)
}

// Protected reports whether hardware thermal protection is currently
// forcing the lowest P-state.
//
//thermlint:allow deadcode -- oracle: the node tests check the hardware clamp with it
func (n *Node) Protected() bool { return n.protected }

// Emergencies returns how many times the hardware trip point was
// reached — the events the paper's proactive control exists to prevent.
func (n *Node) Emergencies() uint64 { return n.emergencies }

// ProtectedTime returns the cumulative time spent under hardware
// thermal protection.
func (n *Node) ProtectedTime() time.Duration { return n.protectedTime }

// SetGenerator attaches an open-loop utilization source; pass nil to
// control utilization manually with SetUtilization.
func (n *Node) SetGenerator(g workload.Generator) { n.gen = g }

// SetUtilization sets the demanded utilization directly (used by the
// cluster's SPMD executor).
func (n *Node) SetUtilization(u float64) { n.util = u }

// Utilization returns the utilization applied on the last step.
func (n *Node) Utilization() float64 { return n.util }

// Elapsed returns the node's accumulated simulated time.
func (n *Node) Elapsed() time.Duration { return n.elapsed }

func (n *Node) breakdown() power.Breakdown {
	return power.Breakdown{
		CPU:  n.CPU.Power(n.Thermal.DieC()),
		Fan:  n.Fan.Power(),
		Base: n.baseW,
	}
}

// Power returns the instantaneous wall-power breakdown.
func (n *Node) Power() power.Breakdown { return n.breakdown() }

// Step advances all device models by dt and returns the compute work
// retired (giga-cycles).
func (n *Node) Step(dt time.Duration) float64 {
	if n.gen != nil {
		n.util = n.gen.Utilization(n.elapsed)
	}
	// Hardware thermal protection: at the trip point the silicon
	// clamps itself to the lowest P-state regardless of what any
	// software daemon wants, until the die cools past the hysteresis.
	die := n.Thermal.DieC()
	if !n.protected && die >= n.protectC {
		n.protected = true
		n.emergencies++
	}
	if n.protected {
		if die < n.protectC-n.protectHystC {
			n.protected = false
		} else {
			if last := len(n.CPU.Table()) - 1; n.CPU.PState() != last {
				n.CPU.SetPState(last)
			}
			n.protectedTime += dt
		}
	}
	n.CPU.SetUtilization(n.util)
	work := n.CPU.Step(dt)

	b := n.breakdown()
	n.Chip.Step(dt) // fan controller monitoring cycle (auto-mode curve)
	n.Fan.Step(dt)
	n.Thermal.Step(dt, b.CPU, n.Fan.Airflow())
	n.Meter.Sample(b, dt)
	n.Scaler.Account(dt)
	n.busyJiffies += n.util * dt.Seconds() * 100
	n.idleJiffies += (1 - n.util) * dt.Seconds() * 100
	n.elapsed += dt
	n.steps++
	return work
}

// Settle initializes the node at thermal equilibrium for the given
// utilization, as a machine that has been idling (or running) long
// before the experiment starts.
func (n *Node) Settle(util float64) {
	n.util = util
	n.CPU.SetUtilization(util)
	// Iterate: power depends on temperature (leakage), temperature on
	// fan speed, and in auto mode fan speed on temperature; a few
	// rounds converge.
	for i := 0; i < 8; i++ {
		n.Chip.Step(0) // auto-mode curve may move the duty command
		for j := 0; j < 50; j++ {
			n.Fan.Step(time.Second) // snap rotor to commanded speed
		}
		p := n.CPU.Power(n.Thermal.DieC())
		n.Thermal.Settle(p, n.Fan.Airflow())
	}
}

// TrueDieC returns the physical (noise-free) die temperature, for
// verification against sensor readings.
func (n *Node) TrueDieC() float64 { return n.Thermal.DieC() }
